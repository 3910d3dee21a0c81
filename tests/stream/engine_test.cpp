// StreamEngine unit tests: epoch bookkeeping, versioned queries, the
// incremental/full-rebuild policy, compaction, error handling, and the
// incremental path's collective budget and adversarial merge shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <vector>

#include "baselines/union_find.hpp"
#include "core/lacc_dist.hpp"
#include "core/options.hpp"
#include "graph/generators.hpp"
#include "obs/config.hpp"
#include "stream/engine.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace lacc::stream {
namespace {

graph::EdgeList single_edge(VertexId n, VertexId u, VertexId v) {
  graph::EdgeList el(n);
  el.add(u, v);
  return el;
}

/// Restore the process-wide trace flag on scope exit.
class TraceGuard {
 public:
  explicit TraceGuard(bool enabled) : saved_(obs::trace_enabled()) {
    obs::set_trace_enabled(enabled);
  }
  ~TraceGuard() { obs::set_trace_enabled(saved_); }

 private:
  bool saved_;
};

/// Collectives rank 0 issued in a traced session: coll:* spans not nested
/// inside another coll:* span.
int outermost_collectives(const sim::SpmdResult& spmd) {
  const auto& spans = spmd.stats.at(0).spans.spans();
  std::vector<char> in_coll(spans.size(), 0);
  int count = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const bool coll = spans[i].name.rfind("coll:", 0) == 0;
    const bool nested =
        spans[i].parent >= 0 &&
        in_coll[static_cast<std::size_t>(spans[i].parent)] != 0;
    in_coll[i] = coll || nested;
    if (coll && !nested) ++count;
  }
  return count;
}

/// Feed `batches` (one epoch each) to never-rebuilding engines at ranks 1, 4
/// and 9 in lockstep.  After every epoch each engine's labels must equal
/// union-find over the accumulated edges, so they are bit-identical across
/// rank counts, and its dirty mass must equal the total size of the
/// components (before the batch) that the batch's cross edges touched.
/// Returns the 9-rank engine's per-epoch stats.
std::vector<EpochStats> replay_at_1_4_9(
    VertexId n, const std::vector<graph::EdgeList>& batches) {
  StreamOptions options;
  options.rebuild_threshold = 1.0;  // every epoch takes the incremental path
  std::vector<std::unique_ptr<StreamEngine>> engines;
  for (const int p : {1, 4, 9})
    engines.push_back(std::make_unique<StreamEngine>(
        n, p, sim::MachineModel::local(), options));

  graph::EdgeList accumulated(n);
  std::vector<VertexId> before(n);
  std::iota(before.begin(), before.end(), VertexId{0});
  std::vector<EpochStats> out;
  for (const auto& batch : batches) {
    std::vector<std::uint64_t> size(n, 0);
    for (const VertexId r : before) ++size[r];
    std::vector<char> touched(n, 0);
    std::uint64_t dirty = 0;
    for (const auto& e : batch.edges) {
      if (before[e.u] == before[e.v]) continue;
      for (const VertexId r : {before[e.u], before[e.v]}) {
        if (touched[r] != 0) continue;
        touched[r] = 1;
        dirty += size[r];
      }
    }
    accumulated.edges.insert(accumulated.edges.end(), batch.edges.begin(),
                             batch.edges.end());
    const auto truth =
        core::normalize_labels(baselines::union_find_cc(accumulated).parent);
    for (auto& engine : engines) {
      engine->ingest(batch);
      const EpochStats st = engine->advance_epoch();
      EXPECT_FALSE(st.full_rebuild);
      EXPECT_EQ(st.dirty_vertices, dirty)
          << "epoch " << st.epoch << ", " << engine->ranks() << " ranks";
      EXPECT_EQ(st.iterations, st.cross_edges == 0 ? 0 : 1);
      EXPECT_EQ(engine->labels(), truth)
          << "epoch " << st.epoch << ", " << engine->ranks() << " ranks";
      if (engine->ranks() == 9) out.push_back(st);
    }
    before = truth;
  }
  return out;
}

TEST(StreamEngine, StartsWithSingletonComponents) {
  StreamEngine engine(10, 4, sim::MachineModel::local());
  EXPECT_EQ(engine.epoch(), 0u);
  EXPECT_EQ(engine.num_components(), 10u);
  for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(engine.component_of(v), v);
}

TEST(StreamEngine, MergesAcrossEpochsAndVersionsQueries) {
  StreamEngine engine(8, 4, sim::MachineModel::local());

  engine.ingest(single_edge(8, 0, 1));
  const auto e1 = engine.advance_epoch();
  EXPECT_EQ(e1.epoch, 1u);
  EXPECT_EQ(e1.cross_edges, 1u);
  EXPECT_EQ(e1.merges, 1u);
  EXPECT_EQ(engine.num_components(), 7u);
  EXPECT_EQ(engine.component_of(1), 0u);

  engine.ingest(single_edge(8, 2, 3));
  const auto e2 = engine.advance_epoch();
  EXPECT_EQ(e2.components, 6u);
  EXPECT_EQ(engine.component_of(3), 2u);

  // Bridge the two pairs: labels collapse onto the minimum vertex id.
  engine.ingest(single_edge(8, 1, 2));
  engine.advance_epoch();
  EXPECT_EQ(engine.num_components(), 5u);
  for (const VertexId v : {0u, 1u, 2u, 3u}) EXPECT_EQ(engine.component_of(v), 0u);

  // Time travel: the epoch-versioned view reproduces every snapshot.
  const std::array<VertexId, 4> vs = {0, 1, 2, 3};
  EXPECT_EQ(engine.query_at(0, vs), (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_EQ(engine.query_at(1, vs), (std::vector<VertexId>{0, 0, 2, 3}));
  EXPECT_EQ(engine.query_at(2, vs), (std::vector<VertexId>{0, 0, 2, 2}));
  EXPECT_EQ(engine.query_at(3, vs), (std::vector<VertexId>{0, 0, 0, 0}));
  EXPECT_EQ(engine.query(vs), engine.query_at(3, vs));
}

TEST(StreamEngine, EmptyEpochChangesNothing) {
  StreamEngine engine(6, 1, sim::MachineModel::local());
  engine.ingest(single_edge(6, 4, 5));
  engine.advance_epoch();
  const auto labels = engine.labels();
  const auto st = engine.advance_epoch();
  EXPECT_EQ(st.cross_edges, 0u);
  EXPECT_EQ(st.merges, 0u);
  EXPECT_EQ(st.relabeled_vertices, 0u);
  EXPECT_FALSE(st.full_rebuild);
  EXPECT_EQ(engine.labels(), labels);
}

TEST(StreamEngine, DuplicateAndInternalEdgesAreFiltered) {
  StreamEngine engine(8, 4, sim::MachineModel::local());
  engine.ingest(single_edge(8, 0, 1));
  engine.advance_epoch();
  // Re-inserting the same edge (plus a self-loop) crosses nothing.
  graph::EdgeList batch(8);
  batch.add(1, 0);
  batch.add(3, 3);
  const auto stats = engine.ingest(batch);
  EXPECT_EQ(stats.self_loops, 1u);
  EXPECT_EQ(stats.kept, 1u);
  const auto st = engine.advance_epoch();
  EXPECT_EQ(st.cross_edges, 0u);
  EXPECT_EQ(st.merges, 0u);
}

TEST(StreamEngine, ZeroThresholdForcesFullRebuild) {
  StreamOptions options;
  options.rebuild_threshold = 0.0;
  StreamEngine engine(40, 4, sim::MachineModel::local(), options);
  const auto el = graph::clustered_components(40, 5, 3.0, /*seed=*/2);
  engine.ingest(el);
  const auto st = engine.advance_epoch();
  ASSERT_GT(st.cross_edges, 0u);
  EXPECT_TRUE(st.full_rebuild);
  EXPECT_TRUE(st.compacted);  // the rebuild path compacts first

  const auto truth = baselines::union_find_cc(el);
  EXPECT_EQ(engine.labels(), core::normalize_labels(truth.parent));
}

TEST(StreamEngine, CompactionPolicyControlsDeltaResidency) {
  // A huge factor keeps the delta resident across incremental epochs; a
  // zero factor folds it into the base every epoch.
  for (const double factor : {1e9, 0.0}) {
    StreamOptions options;
    options.compaction_factor = factor;
    options.rebuild_threshold = 1.0;  // never rebuild
    StreamEngine engine(30, 1, sim::MachineModel::local(), options);
    engine.ingest(single_edge(30, 0, 1));
    const auto st = engine.advance_epoch();
    EXPECT_FALSE(st.full_rebuild);
    if (factor == 0.0) {
      EXPECT_TRUE(st.compacted);
      EXPECT_EQ(st.delta_nnz, 0u);
    } else {
      EXPECT_FALSE(st.compacted);
      EXPECT_EQ(st.delta_nnz, 2u);  // the symmetrized pair stays in the runs
    }
  }
}

TEST(StreamEngine, IncrementalLabelsBitIdenticalToFromScratchLacc) {
  const VertexId n = 120;
  StreamEngine engine(n, 4, sim::MachineModel::local());
  graph::EdgeList accumulated(n);
  const auto full = graph::clustered_components(n, 8, 4.0, /*seed=*/9);
  const std::size_t batch = 1 + full.edges.size() / 5;
  for (std::size_t at = 0; at < full.edges.size(); at += batch) {
    graph::EdgeList slice(n);
    for (std::size_t k = at; k < std::min(at + batch, full.edges.size()); ++k) {
      slice.edges.push_back(full.edges[k]);
      accumulated.edges.push_back(full.edges[k]);
    }
    engine.ingest(slice);
    engine.advance_epoch();
    const auto scratch =
        core::lacc_dist(accumulated, 4, sim::MachineModel::local());
    EXPECT_EQ(engine.labels(), core::normalize_labels(scratch.cc.parent));
  }
  EXPECT_GT(engine.total_modeled_seconds(), 0.0);
  EXPECT_EQ(engine.history().size(), engine.epoch());
}

TEST(StreamEngine, ModeledSecondsAccumulateAndStatsExposed) {
  StreamEngine engine(20, 4, sim::MachineModel::local());
  engine.ingest(single_edge(20, 3, 9));
  const auto st = engine.advance_epoch();
  EXPECT_GT(st.ingest_modeled_seconds, 0.0);
  EXPECT_GT(st.advance_modeled_seconds, 0.0);
  EXPECT_DOUBLE_EQ(engine.total_modeled_seconds(), st.modeled_seconds());
  EXPECT_EQ(engine.last_epoch_spmd().stats.size(), 4u);
}

TEST(StreamEngine, IncrementalEpochIssuesAtMostTenCollectives) {
  // Regression guard on the incremental path's collective budget: the
  // grid's two communicator splits, the filter lookup (four), one count
  // allreduce, the pair and size gathers, and one allreduce on epochs that
  // compact.  A hook/shortcut loop over the same stream issued 24-36.
  const TraceGuard trace(true);
  const VertexId n = 16384;
  auto stream =
      graph::permute_vertices(graph::path_forest(n, 70, /*seed=*/3), 4);
  Xoshiro256 rng(5);
  std::shuffle(stream.edges.begin(), stream.edges.end(), rng);
  const std::size_t warm = stream.edges.size() / 2;
  for (const int p : {4, 9}) {
    StreamEngine engine(n, p, sim::MachineModel::edison());
    graph::EdgeList head(n);
    head.edges.assign(stream.edges.begin(),
                      stream.edges.begin() + static_cast<std::ptrdiff_t>(warm));
    engine.ingest(head);
    engine.advance_epoch();
    int incremental = 0;
    for (std::size_t at = warm; at < stream.edges.size(); at += 256) {
      graph::EdgeList batch(n);
      const std::size_t hi = std::min(at + 256, stream.edges.size());
      batch.edges.assign(stream.edges.begin() + static_cast<std::ptrdiff_t>(at),
                         stream.edges.begin() + static_cast<std::ptrdiff_t>(hi));
      engine.ingest(batch);
      const EpochStats st = engine.advance_epoch();
      if (st.full_rebuild || st.cross_edges == 0) continue;
      ++incremental;
      EXPECT_LE(outermost_collectives(engine.last_epoch_spmd()), 10)
          << "epoch " << st.epoch << ", " << p << " ranks";
    }
    EXPECT_GE(incremental, 10) << p << " ranks";
  }
}

TEST(StreamEngine, ChainOfComponentsAcrossEveryRankMergesInOneRound) {
  // 200 ten-vertex paths, then one batch chaining them in a shuffled order:
  // consecutive links join components far apart in id space, so the cross
  // pairs land on every rank's block and a hook/shortcut loop would chase a
  // 200-long chain of roots.  The replicated union-find resolves it at once.
  constexpr VertexId kComps = 200, kSize = 10, n = kComps * kSize;
  graph::EdgeList paths(n);
  for (VertexId c = 0; c < kComps; ++c)
    for (VertexId i = 1; i < kSize; ++i) paths.add(c * kSize + i - 1, c * kSize + i);
  std::vector<VertexId> order(kComps);
  std::iota(order.begin(), order.end(), VertexId{0});
  Xoshiro256 rng(7);
  std::shuffle(order.begin(), order.end(), rng);
  graph::EdgeList chain(n);
  for (VertexId k = 1; k < kComps; ++k)
    chain.add(order[k - 1] * kSize + static_cast<VertexId>(rng.below(kSize)),
              order[k] * kSize + static_cast<VertexId>(rng.below(kSize)));

  const auto stats = replay_at_1_4_9(n, {paths, chain});
  EXPECT_EQ(stats[1].cross_edges, kComps - 1);
  EXPECT_EQ(stats[1].merges, kComps - 1);
  EXPECT_EQ(stats[1].components, 1u);
  EXPECT_EQ(stats[1].dirty_vertices, n);
}

TEST(StreamEngine, BatchWhereMostRanksContributeNoPairs) {
  // Triangles {3i, 3i+1, 3i+2}, then a batch whose cross edges all join
  // vertices below 60: at 4 and 9 ranks every such edge lives in the first
  // grid block, so the other ranks enter the pair gather empty-handed.
  const VertexId n = 900;
  graph::EdgeList triples(n);
  for (VertexId v = 0; v < n; v += 3) {
    triples.add(v, v + 1);
    triples.add(v + 1, v + 2);
  }
  graph::EdgeList low(n);
  for (VertexId v = 3; v < 30; v += 3) low.add(v - 2, v);  // chain 0..29
  for (VertexId v = 33; v < 60; v += 6) low.add(v, v + 4);  // pairs 33..59

  const auto stats = replay_at_1_4_9(n, {triples, low});
  EXPECT_EQ(stats[1].merges, 9u + 5u);
  EXPECT_EQ(stats[1].components, n / 3 - 14);
}

TEST(StreamEngine, ParallelAndDuplicateRootPairs) {
  // Twenty components spread over the whole id space (v % 20), so each one
  // has members on every rank.  The batch joins components 0..4 in a cycle
  // through ten parallel edges per link (distinct vertex pairs, one root
  // pair), repeats edges verbatim and reversed, and links 10-11 twice.
  // Local forests drop the parallel pairs; ranks still ship the same root
  // pair, and the gathered pairs contain a cycle.
  const VertexId n = 600, k = 20;
  graph::EdgeList spread(n);
  for (VertexId v = k; v < n; ++v) spread.add(v - k, v);
  graph::EdgeList links(n);
  for (VertexId c = 0; c < 5; ++c) {
    const VertexId next = (c + 1) % 5;
    for (VertexId j = 0; j < 10; ++j)
      links.add(c + k * (3 * j), next + k * (29 - j));
    links.add(c + k * 7, next + k * 8);
    links.add(c + k * 7, next + k * 8);
    links.add(next + k * 8, c + k * 7);
  }
  links.add(10, 11 + k * 15);
  links.add(10 + k * 20, 11);

  const auto stats = replay_at_1_4_9(n, {spread, links});
  EXPECT_EQ(stats[1].merges, 4u + 1u);
  EXPECT_EQ(stats[1].components, k - 5);
}

TEST(StreamEngine, DirtyMassMatchesTouchedComponentsAcrossEpochs) {
  // Component sizes move onto surviving roots locally on every rank; the
  // dirty mass of each later epoch reads them back, so a wrong transfer
  // shows up as a dirty mismatch (checked per epoch by replay_at_1_4_9).
  const VertexId n = 1200;
  auto edges =
      graph::permute_vertices(graph::path_forest(n, 40, /*seed=*/11), 12).edges;
  Xoshiro256 rng(13);
  std::shuffle(edges.begin(), edges.end(), rng);
  std::vector<graph::EdgeList> batches;
  for (std::size_t at = 0; at < edges.size(); at += 48) {
    graph::EdgeList batch(n);
    batch.edges.assign(edges.begin() + static_cast<std::ptrdiff_t>(at),
                       edges.begin() + static_cast<std::ptrdiff_t>(
                                           std::min(at + 48, edges.size())));
    batches.push_back(std::move(batch));
  }
  const auto stats = replay_at_1_4_9(n, batches);
  const auto incremental =
      std::count_if(stats.begin(), stats.end(),
                    [](const EpochStats& st) { return st.cross_edges != 0; });
  EXPECT_GE(incremental, 20);
}

TEST(StreamEngine, RejectsBadArguments) {
  EXPECT_THROW(StreamEngine(10, 6, sim::MachineModel::local()), Error);
  StreamEngine engine(10, 4, sim::MachineModel::local());
  EXPECT_THROW(engine.ingest(single_edge(11, 0, 1)), Error);
  const std::array<VertexId, 1> v = {0};
  EXPECT_THROW(engine.query_at(1, v), Error);
  EXPECT_THROW(engine.component_of(10), Error);
}

TEST(StreamEngine, QueriesBeforeFirstAdvanceSeeTheEmptyGraph) {
  // Regression: querying epoch 0 before any advance_epoch must answer (every
  // vertex its own component), not assert.
  StreamEngine engine(5, 1, sim::MachineModel::local());
  const std::array<VertexId, 3> vs = {0, 2, 4};
  EXPECT_EQ(engine.query(vs), (std::vector<VertexId>{0, 2, 4}));
  EXPECT_EQ(engine.query_at(0, vs), (std::vector<VertexId>{0, 2, 4}));
  EXPECT_EQ(engine.component_of(4), 4u);
}

TEST(StreamEngine, QueryErrorsAreCleanUserMessages) {
  // Regression: query errors must read as input diagnostics the CLI can
  // print verbatim, not as LACC_CHECK invariant failures.
  StreamEngine engine(10, 1, sim::MachineModel::local());
  const std::array<VertexId, 1> vs = {0};
  try {
    engine.query_at(3, vs);
    FAIL() << "future epoch accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("epoch 3 has not happened yet"), std::string::npos)
        << what;
    EXPECT_EQ(what.find("LACC_CHECK"), std::string::npos) << what;
  }
  try {
    engine.component_of(10);
    FAIL() << "out-of-range vertex accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("vertex 10 out of range [0, 10)"), std::string::npos)
        << what;
    EXPECT_EQ(what.find("LACC_CHECK"), std::string::npos) << what;
  }
  const std::array<VertexId, 1> bad = {10};
  EXPECT_THROW(engine.query_at(0, bad), Error);
  EXPECT_THROW(engine.query(bad), Error);
}

}  // namespace
}  // namespace lacc::stream
