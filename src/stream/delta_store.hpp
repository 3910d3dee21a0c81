// LSM-style per-rank delta storage for a distributed pattern matrix.
//
// Streaming ingestion cannot afford to rebuild the DCSC blocks per batch:
// construction sorts every nonzero.  Instead each batch is routed to block
// owners exactly like DistCsc construction and appended as one *sorted run*
// of CscCoord — the memtable-flush shape of LSM-tree storage engines
// (LSMGraph / LiveGraph keep per-partition edge deltas the same way).  Runs
// accumulate until the engine's compaction policy fires, at which point
// drain_merged() produces one sorted unique sequence that
// DistCsc::merge_delta() folds into the base arrays with a linear merge.
//
// A watermark separates runs the incremental algorithm has already folded
// into its labels ("processed") from runs a future advance_epoch() still
// needs to look at ("pending").  Processed runs stay resident — their edges
// are reflected in the labels but not yet in the DCSC base — until the next
// compaction.
#pragma once

#include <cstddef>
#include <vector>

#include "dist/dist_mat.hpp"
#include "dist/grid.hpp"
#include "graph/edge_list.hpp"
#include "support/checking.hpp"
#include "support/partition.hpp"
#include "support/types.hpp"

namespace lacc::stream {

namespace durable {
class RankStorage;
}

/// Column-major sort + dedup of a raw coordinate set (two stable radix
/// passes; lint-clean and allocation-predictable, unlike a comparator
/// sort).  Shared by ingestion, drain, the durable level merges, and
/// recovery so every path produces the same canonical run order.
void sort_unique_column_major(std::vector<dist::CscCoord>& entries,
                              VertexId n);

/// One rank's share of the delta edges not yet compacted into the base
/// matrix.  Plain data (no communicator references), so a slot survives
/// across run_spmd sessions like DistVec does.
class DeltaStore {
 public:
  /// Collective only in the sense that every rank builds its share against
  /// the same grid shape; no communication happens here.
  DeltaStore(const dist::ProcGrid& grid, VertexId n)
      : n_(n),
        q_(grid.q()),
        owner_rank_(grid.rank()),
        part_(n, static_cast<std::uint64_t>(grid.size())) {}

  /// Collective: every rank reads its slice of `batch` (canonical
  /// undirected edges; see graph::canonicalize), symmetrizes it, and routes
  /// the directed entries to block owners with an all-to-all — the same
  /// ingestion pattern as DistCsc construction.  The received entries
  /// become one new sorted, deduplicated run.  Returns the global number of
  /// directed entries appended across all ranks.
  ///
  /// An empty batch short-circuits before any collective or run append:
  /// `batch` is shared by every rank, so the skip is uniform and
  /// ledger-safe, and run_count()/modeled time stay untouched (empty runs
  /// used to inflate run_count and trigger spurious compactions).
  ///
  /// With durable storage attached, the routed run is appended to this
  /// rank's WAL under the next global ingest seq before the call returns.
  EdgeId ingest(dist::ProcGrid& grid, const graph::EdgeList& batch);

  /// Attach (or detach, with nullptr) this rank's durable storage; every
  /// subsequent ingest write-ahead-logs its routed run.
  void attach_storage(durable::RankStorage* storage) { storage_ = storage; }

  /// Recovery: re-materialize one WAL record as a pending run, bypassing
  /// routing (the record already holds this rank's post-all-to-all share).
  /// Not collective — recovery replays each rank's own log.
  void restore_run(std::vector<dist::CscCoord> run);

  /// Global ingest sequence number of the last appended run (0 = none yet).
  /// Seqs advance in lockstep across ranks — ingest is collective — so the
  /// manifest can record one watermark for all of them.
  std::uint64_t last_seq() const {
    fence();
    return ingest_seq_;
  }
  /// Recovery: resume the sequence from the replayed WAL position.
  void set_next_seq(std::uint64_t seq) {
    fence();
    ingest_seq_ = seq;
  }

  /// Directed entries resident in this rank's runs (duplicates across runs
  /// counted per run; drain_merged() removes them).
  EdgeId local_nnz() const {
    fence();
    return local_nnz_;
  }
  std::size_t run_count() const {
    fence();
    return runs_.size();
  }

  /// Visit every pending (not yet label-processed) coordinate, run by run.
  template <typename Fn>
  void for_each_pending(Fn&& fn) const {
    fence();
    for (std::size_t r = pending_from_; r < runs_.size(); ++r)
      for (const dist::CscCoord& e : runs_[r]) fn(e);
  }

  /// Directed entries in pending runs.
  EdgeId pending_nnz() const {
    fence();
    EdgeId total = 0;
    for (std::size_t r = pending_from_; r < runs_.size(); ++r)
      total += runs_[r].size();
    return total;
  }

  /// Advance the watermark: everything ingested so far has been folded into
  /// the labels.
  void mark_pending_processed() {
    fence();
    pending_from_ = runs_.size();
  }

  /// Frozen-view support (StreamEngine::freeze_view): the *processed* runs'
  /// coordinates — edges already reflected in the labels but not yet
  /// compacted into the DCSC base — merged into one column-major sorted,
  /// unique sequence without draining the store.  Pending runs are excluded:
  /// they are not part of the published epoch any more than they are part of
  /// the labels.
  std::vector<dist::CscCoord> processed_coords() const {
    fence();
    std::vector<dist::CscCoord> out;
    out.reserve(static_cast<std::size_t>(processed_nnz()));
    for (std::size_t r = 0; r < pending_from_; ++r)
      out.insert(out.end(), runs_[r].begin(), runs_[r].end());
    sort_unique_column_major(out, n_);
    return out;
  }

  /// Directed entries in processed (label-folded, uncompacted) runs.
  EdgeId processed_nnz() const {
    fence();
    EdgeId total = 0;
    for (std::size_t r = 0; r < pending_from_; ++r) total += runs_[r].size();
    return total;
  }

  /// Compaction: merge all runs into one column-major sorted, unique
  /// sequence (ready for DistCsc::merge_delta) and clear the store.
  /// Draining destroys the run structure, so it is an LACC_CHECK failure to
  /// call this while runs are still pending (not yet folded into labels via
  /// mark_pending_processed()) — silently merging labels-unseen edges into
  /// the base is how components quietly go missing.
  std::vector<dist::CscCoord> drain_merged(dist::ProcGrid& grid);

 private:
  /// Block fence (LACC_CHECK=2): only the owning virtual rank may touch
  /// this share outside a collective.  No-op outside run_spmd.
  void fence() const { check::fence_block_access(owner_rank_, "DeltaStore"); }

  VertexId n_;
  int q_;
  int owner_rank_;
  BlockPartition part_;
  std::vector<std::vector<dist::CscCoord>> runs_;
  std::size_t pending_from_ = 0;  ///< first run not yet label-processed
  EdgeId local_nnz_ = 0;
  /// Monotone global ingest counter (never reset by drains); doubles as the
  /// WAL record seq when durable storage is attached.
  std::uint64_t ingest_seq_ = 0;
  durable::RankStorage* storage_ = nullptr;  ///< optional WAL sink
};

}  // namespace lacc::stream
