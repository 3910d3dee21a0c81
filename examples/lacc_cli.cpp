// lacc_cli — command-line connected components.
//
//   lacc_cli <graph.mtx|graph.bin|gen:NAME> [options]
//
//   --algo lacc|fastsv|as|unionfind|bfs   algorithm (default lacc)
//   --ranks N                             virtual ranks for lacc/fastsv
//                                         (default 16; must form a square)
//   --machine edison|cori|local           cost model (default edison)
//   --scale S                             stand-in scale for gen: inputs
//   --out labels.txt                      write "vertex component" lines
//   --trace                               print the per-iteration trace
//   --trace-out FILE                      write a Chrome trace-event JSON
//                                         timeline (lacc/fastsv only)
//   --json FILE                           write lacc-metrics-v7 JSON
//   --prepass                             Afforest-style sampling pre-pass
//                                         before the rounds (lacc only)
//   --sample-rounds N                     pre-pass neighbor rounds (default 2)
//   --no-frequent-skip                    pre-pass: link every local edge
//                                         instead of skipping the frequent
//                                         component
//
// Inputs: Matrix Market coordinate files (pattern/real/integer, general or
// symmetric), the LACC binary format (*.bin), or "gen:NAME" for any of the
// paper's Table III stand-ins (gen:archaea, gen:M3, ...).  Prints the
// component census and optionally writes labels.  The observability outputs
// (--trace-out, --json) go to files only, so stdout is identical with and
// without them (docs/OBSERVABILITY.md).
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <unordered_map>

#include "baselines/serial_cc.hpp"
#include "baselines/union_find.hpp"
#include "core/fastsv.hpp"
#include "core/lacc_dist.hpp"
#include "core/lacc_serial.hpp"
#include "graph/csr.hpp"
#include "graph/io.hpp"
#include "graph/testproblems.hpp"
#include "obs/config.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

using namespace lacc;

namespace {

int usage() {
  std::cerr << "usage: lacc_cli <graph.mtx|graph.bin|gen:NAME> "
               "[--algo lacc|fastsv|as|unionfind|bfs] [--ranks N] "
               "[--machine edison|cori|local] [--scale S] [--out FILE] "
               "[--trace] [--trace-out FILE] [--json FILE] [--prepass] "
               "[--sample-rounds N] [--no-frequent-skip]\n";
  return 2;
}

const sim::MachineModel& machine_by_name(const std::string& name) {
  if (name == "edison") return sim::MachineModel::edison();
  if (name == "cori") return sim::MachineModel::cori_knl();
  if (name == "local") return sim::MachineModel::local();
  throw Error("unknown machine: " + name);
}

/// Parse a flag's value as an int; on garbage, report and exit with usage
/// instead of dying on an uncaught std::invalid_argument.
int parse_int(const char* flag, const std::string& text) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(text, &pos);
    if (pos == text.size()) return v;
  } catch (const std::exception&) {
  }
  std::cerr << "error: " << flag << " expects an integer, got \"" << text
            << "\"\n";
  std::exit(usage());
}

double parse_double(const char* flag, const std::string& text) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(text, &pos);
    if (pos == text.size()) return v;
  } catch (const std::exception&) {
  }
  std::cerr << "error: " << flag << " expects a number, got \"" << text
            << "\"\n";
  std::exit(usage());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string path = argv[1];
  std::string algo = "lacc", machine = "edison", out_path, trace_out_path,
              json_path;
  int ranks = 16;
  double scale = 0.25;
  bool trace = false;
  core::LaccOptions options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--algo")
      algo = next();
    else if (arg == "--ranks")
      ranks = parse_int("--ranks", next());
    else if (arg == "--machine")
      machine = next();
    else if (arg == "--scale")
      scale = parse_double("--scale", next());
    else if (arg == "--out")
      out_path = next();
    else if (arg == "--trace")
      trace = true;
    else if (arg == "--trace-out")
      trace_out_path = next();
    else if (arg == "--json")
      json_path = next();
    else if (arg == "--prepass")
      options.sampling_prepass = true;
    else if (arg == "--sample-rounds")
      options.sample_rounds = parse_int("--sample-rounds", next());
    else if (arg == "--no-frequent-skip")
      options.frequent_skip = false;
    else
      return usage();
  }

  // Validate the grid shape up front: the help text promises a square.
  if (algo == "lacc" || algo == "fastsv") {
    int q = 0;
    while (q * q < ranks) ++q;
    if (ranks < 1 || q * q != ranks) {
      std::cerr << "error: --ranks must be a positive perfect square for "
                   "--algo "
                << algo << " (got " << ranks << ")\n";
      return usage();
    }
  } else if (!trace_out_path.empty()) {
    std::cerr << "error: --trace-out requires --algo lacc|fastsv\n";
    return usage();
  }
  if (options.sampling_prepass && algo != "lacc") {
    std::cerr << "error: --prepass requires --algo lacc\n";
    return usage();
  }
  if (options.sample_rounds < 0) {
    std::cerr << "error: --sample-rounds must be non-negative (got "
              << options.sample_rounds << ")\n";
    return usage();
  }
  if (scale <= 0) {
    std::cerr << "error: --scale must be positive (got " << scale << ")\n";
    return usage();
  }

  // Record collective/kernel spans when a trace file was requested.  This
  // never changes modeled results or stdout — only what lands in the file.
  if (!trace_out_path.empty()) obs::set_trace_enabled(true);

  try {
    graph::EdgeList el;
    if (path.rfind("gen:", 0) == 0) {
      const auto problems = graph::make_test_problems(scale);
      el = graph::find_problem(problems, path.substr(4)).graph;
    } else if (path.size() > 4 && path.substr(path.size() - 4) == ".bin") {
      el = graph::read_binary_file(path);
    } else {
      el = graph::read_matrix_market_file(path);
    }
    std::cout << "Graph: " << fmt_count(el.n) << " vertices, "
              << fmt_count(el.edges.size()) << " entries\n";

    Timer timer;
    core::CcResult result;
    sim::SpmdResult spmd;
    bool have_spmd = false;
    double modeled = -1;
    if (algo == "lacc" || algo == "fastsv") {
      const auto& m = machine_by_name(machine);
      auto run = algo == "lacc" ? core::lacc_dist(el, ranks, m, options)
                                : core::fastsv_dist(el, ranks, m);
      result = std::move(run.cc);
      modeled = run.modeled_seconds;
      spmd = std::move(run.spmd);
      have_spmd = true;
      std::cout << "Algorithm: " << algo << " on " << ranks
                << " virtual ranks (" << m.name << " model)\n";
      if (result.prepass.ran)
        std::cout << "Prepass: " << fmt_count(result.prepass.resolved_vertices)
                  << " vertices resolved ("
                  << fmt_count(result.prepass.sampled_edges) << " sampled + "
                  << fmt_count(result.prepass.skip_edges)
                  << " skip-phase edges, "
                  << fmt_seconds(result.prepass.modeled_seconds)
                  << " modeled)\n";
    } else {
      const graph::Csr g(el);
      if (algo == "as")
        result = core::awerbuch_shiloach(g);
      else if (algo == "unionfind")
        result = baselines::union_find_cc(g);
      else if (algo == "bfs")
        result = baselines::bfs_cc(g);
      else
        return usage();
      std::cout << "Algorithm: " << algo << " (serial)\n";
    }
    const double wall = timer.seconds();

    const auto labels = core::normalize_labels(result.parent);
    std::unordered_map<VertexId, std::uint64_t> size_of;
    for (const VertexId label : labels) ++size_of[label];
    std::uint64_t largest = 0;
    for (const auto& [label, size] : size_of) largest = std::max(largest, size);

    std::cout << "Components: " << fmt_count(size_of.size())
              << " (largest: " << fmt_count(largest) << " vertices)\n";
    std::cout << "Wall time: " << fmt_seconds(wall);
    if (modeled >= 0) std::cout << ", modeled time: " << fmt_seconds(modeled);
    std::cout << ", iterations: " << result.iterations << "\n";

    if (trace && !result.trace.empty()) {
      TextTable t({"iteration", "active", "converged", "hooks"});
      for (const auto& rec : result.trace)
        t.add_row({std::to_string(rec.iteration),
                   fmt_count(rec.active_vertices),
                   fmt_count(rec.converged_vertices),
                   fmt_count(rec.cond_hooks + rec.uncond_hooks)});
      t.print(std::cout);
    }

    if (!out_path.empty()) {
      std::ofstream out(out_path);
      LACC_CHECK_MSG(out.good(), "cannot write " << out_path);
      for (VertexId v = 0; v < el.n; ++v)
        out << v << " " << labels[v] << "\n";
      std::cout << "Labels written to " << out_path << "\n";
    }

    if (!trace_out_path.empty()) {
      std::ofstream out(trace_out_path);
      LACC_CHECK_MSG(out.good(), "cannot write " << trace_out_path);
      obs::TraceMeta meta;
      meta.process_name = "lacc_cli " + algo + " " + path;
      obs::write_chrome_trace(out, spmd.stats, meta);
    }

    if (!json_path.empty()) {
      obs::Scalars scalars{
          {"vertices", static_cast<double>(el.n)},
          {"edges", static_cast<double>(el.edges.size())},
          {"components", static_cast<double>(size_of.size())},
          {"largest_component", static_cast<double>(largest)},
          {"iterations", static_cast<double>(result.iterations)}};
      auto rec = have_spmd
                     ? obs::make_run_record(path, ranks, spmd.stats, modeled,
                                            wall, std::move(scalars))
                     : obs::make_run_record(path, 0, {}, 0.0, wall,
                                            std::move(scalars));
      rec.prepass = core::prepass_scalars(result.prepass);
      std::ofstream out(json_path);
      LACC_CHECK_MSG(out.good(), "cannot write " << json_path);
      obs::write_metrics_json(out, "lacc_cli",
                              {{"scale", scale},
                               {"ranks", static_cast<double>(ranks)}},
                              {std::move(rec)});
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
