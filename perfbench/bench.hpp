// Shared pieces of the repository benchmark (see perfbench/README.md):
// command-line arguments, wall-clock samples, the benchmark's own call spans,
// the report every workload fills, and readers for the counters and span
// logs the library already returns (sim::SpmdResult).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "obs/config.hpp"
#include "sim/runtime.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;  ///< Chrome trace-event file for the call spans
};

/// Seconds on one steady clock shared by every thread of the process.
double now_s();
/// CPU seconds (user + system) consumed so far by the whole process, and by
/// the calling thread.  Set-up is timed in CPU seconds: on a shared host,
/// CPU steal moves wall times several-fold between runs.
double cpu_s();
double thread_cpu_s();

/// Samples (wall or CPU seconds) of one operation kind.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  std::size_t size() const { return v_.size(); }
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double mean() const;
  double max() const { return quantile(1.0); }

 private:
  std::vector<double> v_;
};

/// The benchmark's own spans around each public call it makes: name, start,
/// end, enclosing span.  One log per thread; kept in memory and written as
/// Chrome trace events when the run ends.
class CallLog {
 public:
  explicit CallLog(int tid) : tid_(tid) {}

  std::size_t open(const char* name);
  /// Close span `id` (the innermost open one) and return its seconds.
  double close(std::size_t id);

  struct Span {
    const char* name;
    double begin, end;
    std::int64_t parent;
  };
  int tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int tid_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span over one call; seconds() is valid after stop().
class Call {
 public:
  Call(CallLog& log, const char* name) : log_(log), id_(log.open(name)) {}
  ~Call() { stop(); }
  Call(const Call&) = delete;
  Call& operator=(const Call&) = delete;
  double stop() {
    if (!done_) seconds_ = log_.close(id_), done_ = true;
    return seconds_;
  }

 private:
  CallLog& log_;
  std::size_t id_;
  bool done_ = false;
  double seconds_ = 0;
};

/// What one run reports.  Correctness failures and determinism mismatches
/// both count as failed operations and make the run incorrect.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Modeled quantities that must repeat bit-identically for a given
  /// (workload, seed) on one commit; run.py compares them across runs.
  std::map<std::string, double> pins;
  std::vector<std::string> errors;
  /// Human-readable lines printed before the result.
  std::vector<std::string> lines;
  std::deque<CallLog> logs;  // deque: references stay valid on append

  void metric(const std::string& name, double value) { metrics[name] = value; }
  /// Count one checked operation; a false `ok` fails it.
  void check(bool ok, const std::string& what);
  /// Record a pinned value; returns false when an earlier value of the
  /// same name differs (a determinism failure the caller counts).
  bool pin(const std::string& name, double value);
  void line(const std::string& text) { lines.push_back(text); }
  /// Print an end-to-end figure under its per-workload name.
  void figure(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 0);
};

/// Per-operation statistics read from one SPMD session's counters and span
/// logs (rank 0 for wall splits, sums over ranks for volume).
struct SessionCounts {
  std::uint64_t collectives = 0;  ///< coll:* spans on rank 0 (traced only)
  std::uint64_t messages = 0;     ///< modeled messages, summed over ranks
  std::uint64_t bytes = 0;        ///< modeled bytes, summed over ranks
  double session_wall = 0;        ///< run_spmd wall seconds
  double coll_wall = 0;           ///< rank-0 wall inside outermost coll:*
  /// Rank-0 self wall (span minus children) per op:* span name.
  std::map<std::string, double> op_self_wall;

  void add(const lacc::sim::SpmdResult& spmd);
};

/// Empty-body run_spmd sessions and Comm::barrier rounds at 1 and 4 ranks:
/// the simulator's host tax, timed from outside.
void host_tax_probe(Report& report);

/// Common metric: the per-operation SPMD volume and wall split.
void report_session_counts(Report& report, const SessionCounts& counts,
                           std::uint64_t ops);

using Workload = void (*)(const Args&, Report&);
void static_protein(const Args& args, Report& report);
void stream_inc(const Args& args, Report& report);
void serve_mixed(const Args& args, Report& report);
void analytics(const Args& args, Report& report);

/// Run `setup` `times` times, adding each one's process CPU seconds to
/// `seconds`, and return the last result (the one the timed phase uses).
template <typename F>
auto repeat_setup(int times, Samples& seconds, F&& setup) {
  auto timed = [&] {
    const double t0 = cpu_s();
    auto out = setup();
    seconds.add(cpu_s() - t0);
    return out;
  };
  for (int i = 1; i < times; ++i) (void)timed();
  return timed();
}

/// --trace 0: one untraced pass of args.seconds.  --trace 1: the host-tax
/// probe, an untraced then a traced pass of half the time each, and
/// obs.trace_overhead from their median CPU per operation.  `pass(seconds,
/// traced)` runs the timed phase, records its metrics and returns the
/// per-operation CPU samples.
template <typename Pass>
void run_passes(const Args& args, Report& report, Pass&& pass) {
  lacc::obs::set_trace_enabled(false);
  if (!args.trace) {
    (void)pass(args.seconds, false);
    return;
  }
  host_tax_probe(report);
  const Samples untraced = pass(args.seconds / 2, false);
  lacc::obs::set_trace_enabled(true);
  const Samples traced = pass(args.seconds / 2, true);
  lacc::obs::set_trace_enabled(false);
  if (untraced.median() > 0)
    report.metric("obs.trace_overhead", traced.median() / untraced.median());
}

/// Derive an independent sub-seed for one input of a workload.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
