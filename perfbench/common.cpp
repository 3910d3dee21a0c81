// Shared implementation: samples, call spans, the report, SPMD counters and
// the host-tax probe.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <numeric>

#include "bench.hpp"
#include "sim/machine.hpp"
#include "support/rng.hpp"

namespace perfbench {

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

namespace {
double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double Samples::quantile(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> sorted = v_;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double Samples::mean() const {
  if (v_.empty()) return 0;
  return std::accumulate(v_.begin(), v_.end(), 0.0) /
         static_cast<double>(v_.size());
}

std::size_t CallLog::open(const char* name) {
  const auto parent =
      open_.empty() ? std::int64_t{-1} : static_cast<std::int64_t>(open_.back());
  spans_.push_back({name, now_s(), 0, parent});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

double CallLog::close(std::size_t id) {
  Span& s = spans_[id];
  s.end = now_s();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  return s.end - s.begin;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  correct = false;
  if (errors.size() < 20) errors.push_back(what);
}

bool Report::pin(const std::string& name, double value) {
  const auto [it, inserted] = pins.emplace(name, value);
  return inserted || std::memcmp(&it->second, &value, sizeof value) == 0;
}

void Report::figure(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  char buf[160];
  if (samples > 0)
    std::snprintf(buf, sizeof buf, "  %-20s %14.4f %-6s (n=%zu)", name.c_str(),
                  value, unit.c_str(), samples);
  else
    std::snprintf(buf, sizeof buf, "  %-20s %14.4f %s", name.c_str(), value,
                  unit.c_str());
  lines.emplace_back(buf);
}

void SessionCounts::add(const lacc::sim::SpmdResult& spmd) {
  session_wall += spmd.wall_seconds;
  for (const auto& st : spmd.stats) {
    messages += st.total.messages;
    bytes += st.total.bytes;
  }
  if (spmd.stats.empty()) return;
  const auto& spans = spmd.stats[0].spans.spans();
  std::vector<double> child_wall(spans.size(), 0);
  std::vector<char> in_coll(spans.size(), 0);  // span is or sits in a coll:*
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const double wall = s.wall_end - s.wall_begin;
    const bool coll = s.name.rfind("coll:", 0) == 0;
    const bool nested = s.parent >= 0 && in_coll[static_cast<std::size_t>(s.parent)];
    in_coll[i] = coll || nested;
    if (s.parent >= 0) child_wall[static_cast<std::size_t>(s.parent)] += wall;
    if (coll && !nested) {
      ++collectives;
      coll_wall += wall;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name.rfind("op:", 0) == 0)
      op_self_wall[spans[i].name.substr(3)] +=
          spans[i].wall_end - spans[i].wall_begin - child_wall[i];
}

void report_session_counts(Report& report, const SessionCounts& counts,
                           std::uint64_t ops) {
  const double n = ops == 0 ? 1.0 : static_cast<double>(ops);
  report.metric("sim.collectives_per_op",
                static_cast<double>(counts.collectives) / n);
  report.metric("sim.messages_per_op", static_cast<double>(counts.messages) / n);
  report.metric("sim.bytes_per_op", static_cast<double>(counts.bytes) / n);
  if (counts.session_wall > 0)
    report.metric("sim.coll_wall_share", counts.coll_wall / counts.session_wall);
  const std::pair<const char*, const char*> ops_named[] = {
      {"mxv", "dist.mxv_ms"},           {"mxv_minmax", "dist.mxv_minmax_ms"},
      {"mxv_plus", "dist.mxv_plus_ms"}, {"extract", "dist.extract_ms"},
      {"assign", "dist.assign_ms"},     {"scatter_set", "dist.scatter_set_ms"},
  };
  for (const auto& [op, metric] : ops_named) {
    const auto it = counts.op_self_wall.find(op);
    if (it != counts.op_self_wall.end())
      report.metric(metric, it->second * 1e3 / n);
  }
}

void host_tax_probe(Report& report) {
  const auto& machine = lacc::sim::MachineModel::edison();
  for (const int p : {1, 4}) {
    Samples session;
    for (int i = 0; i < 200; ++i) {
      const double t0 = now_s();
      lacc::sim::run_spmd(p, machine, [](lacc::sim::Comm&) {});
      session.add(now_s() - t0);
    }
    constexpr int kRounds = 2000;
    Samples barrier;
    for (int i = 0; i < 5; ++i) {
      double seconds = 0;
      lacc::sim::run_spmd(p, machine, [&](lacc::sim::Comm& comm) {
        comm.barrier();
        const double t0 = now_s();
        for (int r = 0; r < kRounds; ++r) comm.barrier();
        if (comm.rank() == 0) seconds = now_s() - t0;
      });
      barrier.add(seconds / kRounds);
    }
    const std::string suffix = "_p" + std::to_string(p);
    report.metric("sim.session_us" + suffix, session.median() * 1e6);
    report.metric("sim.barrier_us" + suffix, barrier.median() * 1e6);
  }
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  return lacc::hash_mix(seed, stream);
}

}  // namespace perfbench
