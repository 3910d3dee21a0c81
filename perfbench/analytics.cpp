// analytics: kernel::bfs from seeded sources, kernel::pagerank and
// kernel::triangle_count over GraphView::from_edges of the twitter7 RMAT
// stand-in at 4 ranks.  It loads dist/sim unlike CC does: BFS is short
// alpha-bound sessions, PageRank dense mxv_plus per iteration, and triangle
// counting bandwidth-bound SUMMA broadcasts.  The only workload that runs
// src/kernel.  Four graph instances alternate: triangle-counting cost varies
// with where one RMAT graph's hubs land, and averaging four halves that
// seed-to-seed spread.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "graph/generators.hpp"
#include "kernel/kernels.hpp"
#include "kernel/reference.hpp"
#include "kernel/view.hpp"
#include "sim/machine.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using lacc::VertexId;

constexpr int kRanks = 4;
constexpr int kScale = 14;  // twitter7 stand-in: 2^14 vertices
constexpr std::size_t kGraphs = 4;
constexpr std::size_t kSources = 8;  // BFS sources per graph
constexpr std::size_t kMinSets = kGraphs * kSources;
constexpr double kTail = 0.9;  // of wall per set
// PageRank runs a fixed number of iterations (tolerance 0): its cost then
// does not depend on how fast one random graph happens to converge.
constexpr int kPageRankIterations = 30;
constexpr double kPageRankTolerance = 1e-8;  // per vertex, as the kernel tests

lacc::graph::EdgeList twitter7(std::uint64_t seed) {
  const VertexId n = VertexId{1} << kScale;
  auto g = lacc::graph::rmat(kScale, n * 12, sub_seed(seed, 1));
  const auto tree = lacc::graph::random_tree(n, sub_seed(seed, 2));
  g.edges.insert(g.edges.end(), tree.edges.begin(), tree.edges.end());
  return lacc::graph::permute_vertices(g, sub_seed(seed, 3));
}

/// One graph, its view, and the serial oracles' answers.
struct Instance {
  lacc::graph::EdgeList graph;
  lacc::kernel::GraphView view;
  std::vector<VertexId> sources;
  std::vector<std::vector<VertexId>> bfs_truth;
  std::vector<double> pr_truth;
  std::uint64_t tc_truth = 0;
};

struct KernelTotals {
  Samples wall;
  std::uint64_t rounds = 0, words = 0;
  double modeled = 0;
  void add(double seconds, const lacc::kernel::KernelStats& st) {
    wall.add(seconds);
    rounds += st.rounds;
    words += st.words_moved;
    modeled += st.modeled_seconds;
  }
  void report_layer(Report& report, const std::string& name) const {
    const double n = static_cast<double>(std::max<std::size_t>(wall.size(), 1));
    report.metric("kernel." + name + "_rounds", static_cast<double>(rounds) / n);
    report.metric("kernel." + name + "_words", static_cast<double>(words) / n);
    report.metric("kernel." + name + "_modeled_ms", modeled * 1e3 / n);
  }
};

}  // namespace

void analytics(const Args& args, Report& report) {
  CallLog& log = report.logs.emplace_back(0);
  const auto& machine = lacc::sim::MachineModel::edison();
  Samples setup, gen;
  using Instances = std::vector<std::unique_ptr<Instance>>;
  Instances instances = repeat_setup(3, setup, [&] {
    Instances out;
    for (std::size_t g = 0; g < kGraphs; ++g) {
      const double t0 = cpu_s();
      auto graph = [&] {
        Call call(log, "generate");
        return twitter7(sub_seed(args.seed, 10 + g));
      }();
      gen.add(cpu_s() - t0);
      Call call(log, "from_edges");
      auto view = lacc::kernel::GraphView::from_edges(graph, kRanks, machine);
      out.push_back(std::make_unique<Instance>(
          Instance{std::move(graph), std::move(view), {}, {}, {}, 0}));
    }
    return out;
  });
  report.metric("setup_s", setup.median());
  report.metric("graph.gen_s", gen.median() * kGraphs);

  lacc::kernel::KernelOptions options;
  options.tolerance = 0;
  options.max_iterations = kPageRankIterations;
  for (std::size_t g = 0; g < kGraphs; ++g) {
    Instance& in = *instances[g];
    lacc::Xoshiro256 rng(sub_seed(args.seed, 20 + g));
    while (in.sources.size() < kSources)
      in.sources.push_back(static_cast<VertexId>(rng() % in.graph.n));
    for (const VertexId s : in.sources)
      in.bfs_truth.push_back(lacc::kernel::reference_bfs_distances(in.graph, s));
    in.pr_truth = lacc::kernel::reference_pagerank(
        in.graph, options.damping, options.tolerance, options.max_iterations);
    in.tc_truth = lacc::kernel::reference_triangle_count(in.graph);
    report.line("analytics: twitter7 stand-in #" + std::to_string(g) + ", " +
                std::to_string(in.graph.n) + " vertices, " +
                std::to_string(in.graph.size()) + " edges, " +
                std::to_string(in.tc_truth) + " triangles, " +
                std::to_string(kRanks) + " ranks, " +
                std::to_string(kSources) + " BFS sources");
  }

  run_passes(args, report, [&](double seconds, bool traced) {
    Samples set, cpu;
    KernelTotals bfs, pr, tc;
    SessionCounts counts;
    const double end = now_s() + seconds;
    for (std::size_t i = 0; set.size() < kMinSets || now_s() < end; ++i) {
      const std::size_t g = i % kGraphs, k = (i / kGraphs) % kSources;
      const Instance& in = *instances[g];
      const double cpu0 = cpu_s();
      Call call(log, "kernel_set");
      Call b(log, "bfs");
      const auto br = lacc::kernel::bfs(in.view, in.sources[k], options);
      bfs.add(b.stop(), br.stats);
      Call p(log, "pagerank");
      const auto prr = lacc::kernel::pagerank(in.view, options);
      pr.add(p.stop(), prr.stats);
      Call t(log, "triangle_count");
      const auto tcr = lacc::kernel::triangle_count(in.view, options);
      tc.add(t.stop(), tcr.stats);
      set.add(call.stop());
      cpu.add(cpu_s() - cpu0);

      const std::string id = "g" + std::to_string(g) + ".";
      const std::string src = id + "bfs" + std::to_string(k);
      bool bfs_ok = br.dist == in.bfs_truth[k];
      bfs_ok &= report.pin(src + "_modeled_s", br.stats.modeled_seconds);
      bfs_ok &= report.pin(src + "_rounds", br.stats.rounds);
      report.check(bfs_ok, src + " differs");
      bool pr_ok = prr.rank.size() == in.pr_truth.size() &&
                   prr.stats.rounds == kPageRankIterations;
      for (std::size_t v = 0; pr_ok && v < in.pr_truth.size(); ++v)
        pr_ok = std::abs(prr.rank[v] - in.pr_truth[v]) <= kPageRankTolerance;
      pr_ok &= report.pin(id + "pagerank_modeled_s", prr.stats.modeled_seconds);
      report.check(pr_ok, id + "pagerank differs from the reference");
      bool tc_ok = tcr.triangles == in.tc_truth;
      tc_ok &= report.pin(id + "tc_modeled_s", tcr.stats.modeled_seconds);
      tc_ok &= report.pin(id + "tc_rounds", tcr.stats.rounds);
      report.check(tc_ok, id + "triangle count differs");

      if (traced)
        for (const auto* st : {&br.stats, &prr.stats, &tcr.stats})
          counts.add(st->spmd);
    }
    // Modeled seconds of one set, averaged over graphs and BFS sources:
    // built from the pinned per-call values, so it repeats bit-identically.
    double modeled = 0;
    for (std::size_t g = 0; g < kGraphs; ++g) {
      const std::string id = "g" + std::to_string(g) + ".";
      modeled += report.pins[id + "pagerank_modeled_s"] +
                 report.pins[id + "tc_modeled_s"];
      for (std::size_t k = 0; k < kSources; ++k)
        modeled += report.pins[id + "bfs" + std::to_string(k) + "_modeled_s"] /
                   static_cast<double>(kSources);
    }
    modeled /= static_cast<double>(kGraphs);
    if (!traced) {
      report.metric("host.op_cpu_ms", cpu.mean() * 1e3);
      report.metric("modeled_ms", modeled * 1e3);
      report.metric("host.op_wall_ms_p50", set.median() * 1e3);
      report.metric("host.op_wall_ms_tail", set.quantile(kTail) * 1e3);
      report.line("untraced pass (op = one bfs+pagerank+tc set):");
      report.figure("set_ms_p50", set.median() * 1e3, "ms", set.size());
      report.figure("set_ms_p90", set.quantile(kTail) * 1e3, "ms", set.size());
      report.figure("set_cpu_ms_mean", cpu.mean() * 1e3, "ms");
      report.figure("bfs_ms_p50", bfs.wall.median() * 1e3, "ms",
                    bfs.wall.size());
      report.figure("pagerank_ms_p50", pr.wall.median() * 1e3, "ms",
                    pr.wall.size());
      report.figure("tc_ms_p50", tc.wall.median() * 1e3, "ms", tc.wall.size());
      report.figure("kernel_modeled_ms", modeled * 1e3, "ms");
      return cpu;
    }
    report_session_counts(report, counts, set.size());
    bfs.report_layer(report, "bfs");
    pr.report_layer(report, "pagerank");
    tc.report_layer(report, "tc");
    return cpu;
  });
}

}  // namespace perfbench
