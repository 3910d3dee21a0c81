// static-protein: repeated core::lacc_dist solves of the eukarya stand-in
// (clustered protein-similarity components) at 4 ranks on the Edison model
// — the paper's Figure 4 regime.  One SPMD session per solve with large
// collectives: it loads the core phases and dist ops, and hardly sees
// session spawn, stream, serve or shard.  Two graph instances alternate, so
// one graph's iteration count does not set a run's modeled cost.
#include <cmath>
#include <string>
#include <vector>

#include "baselines/union_find.hpp"
#include "bench.hpp"
#include "core/lacc_dist.hpp"
#include "graph/generators.hpp"
#include "sim/machine.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 4;
constexpr double kScale = 2.0;  // eukarya stand-in: 24576 * scale vertices
constexpr double kTail = 0.9;  // of wall per solve (~100 solves in 15 s)
constexpr std::size_t kGraphs = 2;
constexpr std::size_t kMinSolves = 20;

lacc::graph::EdgeList eukarya(std::uint64_t seed) {
  const auto n = static_cast<lacc::VertexId>(std::round(24576 * kScale));
  return lacc::graph::permute_vertices(
      lacc::graph::clustered_components(n, n / 20, 22.0, sub_seed(seed, 1)),
      sub_seed(seed, 2));
}

const char* const kPhases[] = {"cond-hook", "uncond-hook", "shortcut",
                               "starcheck"};

}  // namespace

void static_protein(const Args& args, Report& report) {
  CallLog& log = report.logs.emplace_back(0);
  Samples setup;
  const auto graphs = repeat_setup(3, setup, [&] {
    std::vector<lacc::graph::EdgeList> out;
    for (std::size_t g = 0; g < kGraphs; ++g) {
      Call call(log, "generate");
      out.push_back(eukarya(sub_seed(args.seed, 10 + g)));
    }
    return out;
  });
  report.metric("setup_s", setup.median());
  report.metric("graph.gen_s", setup.median());

  std::vector<std::vector<lacc::VertexId>> truths;
  for (const auto& graph : graphs) {
    truths.push_back(lacc::baselines::union_find_cc(graph).parent);
    report.line("static-protein: eukarya stand-in, " +
                std::to_string(graph.n) + " vertices, " +
                std::to_string(graph.size()) + " edges, " +
                std::to_string(lacc::core::count_components(truths.back())) +
                " components, " + std::to_string(kRanks) + " ranks");
  }
  const auto& machine = lacc::sim::MachineModel::edison();

  run_passes(args, report, [&](double seconds, bool traced) {
    Samples solve, cpu;
    SessionCounts counts;
    std::map<std::string, lacc::obs::OpCounters> phases;
    double modeled = 0, iterations = 0;  // per solve, averaged over graphs
    const double end = now_s() + seconds;
    for (std::size_t i = 0; solve.size() < kMinSolves || now_s() < end; ++i) {
      const std::size_t g = i % kGraphs;
      const double cpu0 = cpu_s();
      Call call(log, "lacc_dist");
      const auto run = lacc::core::lacc_dist(graphs[g], kRanks, machine);
      solve.add(call.stop());
      cpu.add(cpu_s() - cpu0);

      std::uint64_t bytes = 0;
      for (const auto& st : run.spmd.stats) bytes += st.total.bytes;
      const std::string id = "g" + std::to_string(g) + ".";
      bool ok = lacc::core::same_partition(run.cc.parent, truths[g]);
      ok &= report.pin(id + "solve_modeled_s", run.modeled_seconds);
      ok &= report.pin(id + "iterations", run.cc.iterations);
      ok &= report.pin(id + "bytes_per_solve", static_cast<double>(bytes));
      report.check(ok, id + "lacc_dist labels or modeled cost differ");

      if (i < kGraphs) {  // every later solve of a graph repeats its first
        modeled += run.modeled_seconds / kGraphs;
        iterations += static_cast<double>(run.cc.iterations) / kGraphs;
      }
      if (traced) {
        counts.add(run.spmd);
        for (const auto& [name, c] : lacc::obs::max_over_ranks(run.spmd.stats).regions) phases[name].add(c);
      }
    }
    if (!traced) {
      report.metric("host.op_cpu_ms", cpu.mean() * 1e3);
      report.metric("modeled_ms", modeled * 1e3);
      report.metric("host.op_wall_ms_p50", solve.median() * 1e3);
      report.metric("host.op_wall_ms_tail", solve.quantile(kTail) * 1e3);
      report.line("untraced pass (op = one lacc_dist solve):");
      report.figure("solve_ms_p50", solve.median() * 1e3, "ms", solve.size());
      report.figure("solve_ms_p90", solve.quantile(kTail) * 1e3, "ms",
                    solve.size());
      report.figure("solve_cpu_ms_mean", cpu.mean() * 1e3, "ms");
      report.figure("solve_modeled_ms", modeled * 1e3, "ms");
      return cpu;
    }
    const double n = static_cast<double>(solve.size());
    report_session_counts(report, counts, solve.size());
    report.metric("core.iterations", iterations);
    for (const char* phase : kPhases) {
      std::string key = phase;
      for (char& c : key)
        if (c == '-') c = '_';
      const auto& c = phases[phase];
      report.metric("core." + key + "_modeled_ms",
                    c.modeled_seconds() * 1e3 / n);
      report.metric("core." + key + "_wall_ms", c.wall_seconds * 1e3 / n);
    }
    return cpu;
  });
}

}  // namespace perfbench
