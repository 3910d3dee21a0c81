// lacc_perfbench — the repository benchmark binary.
//
//   lacc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--spans-out FILE]
//
// Runs one workload (static-protein, stream-inc, serve-mixed, analytics)
// against the public APIs of core, stream, shard/serve and kernel, checks
// every answer, and prints human-readable lines followed by one JSON line:
// the end-to-end metrics of an untraced pass (--trace 0) or the per-layer
// metrics of a traced pass (--trace 1), plus the modeled values that must
// repeat bit-identically (pins).  perfbench/run.py builds this binary and
// turns that line into the benchmark result; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Untraced pass: every workload reports every one of these.  Host time per
// op is not among them: CPU steal on a shared host moves it by more than any
// bound a regression gate could use (see README.md), so it is recorded,
// unbounded, as host.* in the traced pass.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"modeled_ms", "ms"},
};

// Traced pass: every workload reports every one of these; a layer the
// workload bypasses reads 0.
constexpr MetricDef kPerLayer[] = {
    {"host.op_cpu_ms", "ms"},
    {"host.op_wall_ms_p50", "ms"},
    {"host.op_wall_ms_tail", "ms"},
    {"graph.gen_s", "s"},
    {"sim.session_us_p1", "us"},
    {"sim.session_us_p4", "us"},
    {"sim.barrier_us_p1", "us"},
    {"sim.barrier_us_p4", "us"},
    {"sim.collectives_per_op", "count"},
    {"sim.messages_per_op", "count"},
    {"sim.bytes_per_op", "B"},
    {"sim.coll_wall_share", "ratio"},
    {"dist.mxv_ms", "ms"},
    {"dist.mxv_minmax_ms", "ms"},
    {"dist.mxv_plus_ms", "ms"},
    {"dist.extract_ms", "ms"},
    {"dist.assign_ms", "ms"},
    {"dist.scatter_set_ms", "ms"},
    {"core.iterations", "count"},
    {"core.cond_hook_modeled_ms", "ms"},
    {"core.cond_hook_wall_ms", "ms"},
    {"core.uncond_hook_modeled_ms", "ms"},
    {"core.uncond_hook_wall_ms", "ms"},
    {"core.shortcut_modeled_ms", "ms"},
    {"core.shortcut_wall_ms", "ms"},
    {"core.starcheck_modeled_ms", "ms"},
    {"core.starcheck_wall_ms", "ms"},
    {"stream.ingest_us_p50", "us"},
    {"stream.advance_ms_p50", "ms"},
    {"stream.inc_share", "ratio"},
    {"stream.iterations_per_epoch", "count"},
    {"stream.filter_modeled_us", "us"},
    {"stream.dirty_modeled_us", "us"},
    {"stream.inc_modeled_us", "us"},
    {"stream.shortcut_modeled_us", "us"},
    {"stream.relabel_modeled_us", "us"},
    {"stream.rebuild_modeled_us", "us"},
    {"stream.bytes_per_relabel", "B"},
    {"serve.insert_us_p99", "us"},
    {"serve.edges_per_batch", "count"},
    {"serve.commit_ms_p50", "ms"},
    {"serve.queue_depth_max", "count"},
    {"serve.shed", "count"},
    {"serve.read_us_p50", "us"},
    {"serve.read_us_p99", "us"},
    {"serve.lateness_us_p99", "us"},
    {"serve.lateness_us_max", "us"},
    {"shard.reconcile_rounds", "count"},
    {"shard.reconcile_modeled_ms", "ms"},
    {"shard.boundary_words_per_round", "count"},
    {"kernel.bfs_rounds", "count"},
    {"kernel.bfs_words", "count"},
    {"kernel.bfs_modeled_ms", "ms"},
    {"kernel.pagerank_rounds", "count"},
    {"kernel.pagerank_words", "count"},
    {"kernel.pagerank_modeled_ms", "ms"},
    {"kernel.tc_rounds", "count"},
    {"kernel.tc_words", "count"},
    {"kernel.tc_modeled_ms", "ms"},
    {"obs.trace_overhead", "ratio"},
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string number(double v, const char* format = "%.17g") {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

void write_spans(const Report& report, const std::string& path) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& log : report.logs)
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
      const auto& s = log.spans()[i];
      out << (first ? "" : ",") << "\n{\"name\":" << json_string(s.name)
          << ",\"ph\":\"X\",\"pid\":0,\"tid\":" << log.tid()
          << ",\"ts\":" << number(s.begin * 1e6, "%.3f")
          << ",\"dur\":" << number((s.end - s.begin) * 1e6, "%.3f")
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << "}}";
      first = false;
    }
  out << "\n]}\n";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: lacc_perfbench --workload "
               "static-protein|stream-inc|serve-mixed|analytics --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) return usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      args.trace = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      return usage("unknown flag");
    }
  }
  const std::pair<const char*, Workload> workloads[] = {
      {"static-protein", static_protein},
      {"stream-inc", stream_inc},
      {"serve-mixed", serve_mixed},
      {"analytics", analytics},
  };
  Workload run = nullptr;
  for (const auto& [name, fn] : workloads)
    if (args.workload == name) run = fn;
  if (run == nullptr) return usage("unknown --workload");

  Report report;
  try {
    run(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (!args.spans_out.empty()) write_spans(report, args.spans_out);

  for (const auto& line : report.lines) std::printf("%s\n", line.c_str());

  std::string json = "{\"correct\":";
  json += report.correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(report.attempted);
  json += ",\"failed\":" + std::to_string(report.failed);
  json += ",\"metrics\":{";
  bool first = true;
  auto emit = [&](const MetricDef& def) {
    const auto it = report.metrics.find(def.name);
    const double value = it == report.metrics.end() ? 0.0 : it->second;
    json += std::string(first ? "" : ",") + json_string(def.name) +
            ":{\"value\":" + number(value) +
            ",\"unit\":" + json_string(def.unit) + "}";
    first = false;
  };
  if (args.trace) {
    for (const auto& def : kPerLayer) emit(def);
  } else {
    for (const auto& def : kEndToEnd) {
      if (!report.metrics.count(def.name)) {
        std::fprintf(stderr, "error: workload did not report %s\n", def.name);
        return 1;
      }
      emit(def);
    }
  }
  json += "},\"pins\":{";
  first = true;
  for (const auto& [name, value] : report.pins) {
    json += std::string(first ? "" : ",") + json_string(name) + ":" +
            json_string(number(value, "%a"));
    first = false;
  }
  json += "},\"errors\":[";
  first = true;
  for (const auto& e : report.errors) {
    json += std::string(first ? "" : ",") + json_string(e);
    first = false;
  }
  json += "]}";
  std::printf("%s\n", json.c_str());
  return 0;
}
