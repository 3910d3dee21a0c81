#include "stream/delta_store.hpp"

#include <algorithm>
#include <utility>

#include "stream/durable/version_set.hpp"
#include "support/error.hpp"
#include "support/sort.hpp"

namespace lacc::stream {

using dist::CscCoord;

void sort_unique_column_major(std::vector<CscCoord>& entries, VertexId n) {
  std::vector<CscCoord> scratch;
  radix_sort_by(entries, scratch, [](const CscCoord& e) { return e.row; }, n);
  radix_sort_by(entries, scratch, [](const CscCoord& e) { return e.col; }, n);
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
}

EdgeId DeltaStore::ingest(dist::ProcGrid& grid, const graph::EdgeList& batch) {
  fence();
  // Empty batch: nothing to route, nothing to log.  `batch` is the same
  // object on every rank, so the early return is uniform (no rank skips a
  // collective the others enter) and appends no empty run.
  if (batch.edges.empty()) return 0;
  auto& world = grid.world();
  sim::TraceSpan trace(world.state(), "op:delta_ingest");

  // Route my slice's directed entries to block owners, exactly like DistCsc
  // construction.
  const BlockPartition edge_slice(batch.edges.size(),
                                  static_cast<std::uint64_t>(world.size()));
  const auto lo = edge_slice.begin(static_cast<std::uint64_t>(world.rank()));
  const auto hi = edge_slice.end(static_cast<std::uint64_t>(world.rank()));
  const auto q64 = static_cast<std::uint64_t>(q_);
  std::vector<std::vector<CscCoord>> bucket(
      static_cast<std::size_t>(world.size()));
  const auto route = [&](VertexId r, VertexId c) {
    LACC_CHECK_MSG(r < n_ && c < n_, "delta edge endpoint out of range");
    const int grid_row = static_cast<int>(part_.owner(r) / q64);
    const int grid_col = static_cast<int>(part_.owner(c) / q64);
    bucket[static_cast<std::size_t>(grid.rank_of(grid_row, grid_col))]
        .push_back({r, c});
  };
  for (auto e = lo; e < hi; ++e) {
    const auto& edge = batch.edges[e];
    if (edge.u == edge.v) continue;
    route(edge.u, edge.v);
    route(edge.v, edge.u);
  }
  world.charge_compute(static_cast<double>(2 * (hi - lo)));

  std::vector<CscCoord> send;
  std::vector<std::size_t> counts(static_cast<std::size_t>(world.size()));
  for (std::size_t d = 0; d < bucket.size(); ++d) {
    counts[d] = bucket[d].size();
    send.insert(send.end(), bucket[d].begin(), bucket[d].end());
  }
  std::vector<CscCoord> run =
      world.alltoallv(send, counts, sim::AllToAllAlgo::kPairwise);

  sort_unique_column_major(run, n_);
  world.charge_compute(static_cast<double>(run.size()) * 4);  // sort passes

  local_nnz_ += run.size();
  const EdgeId appended = world.allreduce(
      static_cast<EdgeId>(run.size()), [](EdgeId a, EdgeId b) { return a + b; });
  runs_.push_back(std::move(run));
  ++ingest_seq_;
  // Write-ahead: the routed (post-all-to-all) run is what this rank must be
  // able to re-materialize without collectives, so that is what gets
  // logged.  Disk I/O charges no modeled time — the cost model covers the
  // simulated cluster, not the host's disk.
  if (storage_ != nullptr) storage_->wal().append(ingest_seq_, runs_.back());
  return appended;
}

void DeltaStore::restore_run(std::vector<CscCoord> run) {
  fence();
  local_nnz_ += run.size();
  runs_.push_back(std::move(run));
}

std::vector<CscCoord> DeltaStore::drain_merged(dist::ProcGrid& grid) {
  fence();
  // Draining flattens the runs; any run still pending would have its edges
  // merged into the base without ever passing through the label update —
  // the caller must fold pending runs into the labels (and call
  // mark_pending_processed) before compacting.
  LACC_CHECK_MSG(pending_from_ == runs_.size(),
                 "DeltaStore::drain_merged would drop "
                     << runs_.size() - pending_from_
                     << " pending run(s); fold them into the labels and call "
                        "mark_pending_processed() before draining");
  std::vector<CscCoord> merged;
  merged.reserve(static_cast<std::size_t>(local_nnz_));
  for (const auto& run : runs_)
    merged.insert(merged.end(), run.begin(), run.end());
  sort_unique_column_major(merged, n_);
  grid.world().charge_compute(static_cast<double>(merged.size()) * 4);
  runs_.clear();
  pending_from_ = 0;
  local_nnz_ = 0;
  return merged;
}

}  // namespace lacc::stream
