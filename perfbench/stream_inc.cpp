// stream-inc: warm-load half of the M3 stand-in (a forest of short paths,
// average component size 70), then stream the rest through
// StreamEngine::ingest + advance_epoch in 256-edge batches at 4 ranks.
// Nearly every batch edge merges two small components, and ~90% of epochs
// stay under the rebuild threshold: the typical epoch is the incremental
// loop's collectives and per-epoch sessions — the path static-protein
// bypasses.  When the stream runs out, a fresh engine is warm-loaded
// (untimed) and the same stream replays.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "baselines/union_find.hpp"
#include "bench.hpp"
#include "core/options.hpp"
#include "graph/generators.hpp"
#include "sim/machine.hpp"
#include "stream/engine.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 4;
constexpr double kScale = 1.0;  // M3 stand-in: 65536 * scale vertices
constexpr std::size_t kBatch = 256;
constexpr double kTail = 0.95;

struct Stream {
  lacc::graph::EdgeList edges;  ///< shuffled; [0, warm) is the warm load
  std::size_t warm = 0;
};

Stream make_stream(std::uint64_t seed) {
  const auto n = static_cast<lacc::VertexId>(std::round(65536 * kScale));
  Stream s{lacc::graph::permute_vertices(
               lacc::graph::path_forest(n, 70, sub_seed(seed, 1)),
               sub_seed(seed, 2)),
           0};
  lacc::Xoshiro256 rng(sub_seed(seed, 3));
  std::shuffle(s.edges.edges.begin(), s.edges.edges.end(), rng);
  s.warm = s.edges.size() / 2;
  return s;
}

lacc::graph::EdgeList slice(const Stream& s, std::size_t lo, std::size_t hi) {
  lacc::graph::EdgeList out(s.edges.n);
  out.edges.assign(s.edges.edges.begin() + static_cast<std::ptrdiff_t>(lo),
                   s.edges.edges.begin() + static_cast<std::ptrdiff_t>(hi));
  return out;
}

std::unique_ptr<lacc::stream::StreamEngine> warm_engine(const Stream& s,
                                                        CallLog& log) {
  auto engine = std::make_unique<lacc::stream::StreamEngine>(
      s.edges.n, kRanks, lacc::sim::MachineModel::edison());
  Call call(log, "warm_load");
  engine->ingest(slice(s, 0, s.warm));
  engine->advance_epoch();
  return engine;
}

/// Labels after streaming edges [0, upto) against union-find truth.
bool matches_truth(const Stream& s, std::size_t upto,
                   const lacc::stream::StreamEngine& engine) {
  return lacc::core::same_partition(
      engine.labels(), lacc::baselines::union_find_cc(slice(s, 0, upto)).parent);
}

}  // namespace

void stream_inc(const Args& args, Report& report) {
  CallLog& log = report.logs.emplace_back(0);
  Samples setup, gen;
  struct Ready {
    Stream stream;
    std::unique_ptr<lacc::stream::StreamEngine> engine;
  };
  Ready ready = repeat_setup(3, setup, [&] {
    const double t0 = cpu_s();
    Stream s = [&] {
      Call call(log, "generate");
      return make_stream(args.seed);
    }();
    gen.add(cpu_s() - t0);
    auto engine = warm_engine(s, log);
    return Ready{std::move(s), std::move(engine)};
  });
  report.metric("setup_s", setup.median());
  report.metric("graph.gen_s", gen.median());
  const Stream& stream = ready.stream;
  const std::size_t total = stream.edges.size();
  report.line("stream-inc: M3 stand-in, " + std::to_string(stream.edges.n) +
              " vertices, " + std::to_string(total) + " edges, warm " +
              std::to_string(stream.warm) + ", " + std::to_string(kBatch) +
              "-edge epochs, " + std::to_string(kRanks) + " ranks");
  const std::size_t cycle_epochs = (total - stream.warm + kBatch - 1) / kBatch;

  run_passes(args, report, [&](double seconds, bool traced) {
    Samples epoch, cpu, ingest, advance;
    SessionCounts counts;
    std::map<std::string, lacc::obs::OpCounters> regions;
    std::uint64_t streamed = 0, rebuilds = 0, iterations = 0, relabeled = 0;
    Samples replay_modeled;  // per epoch, of the first full replay
    double cycle_modeled = 0, cycle_bytes = 0;
    std::size_t at = stream.warm;
    const double end = now_s() + seconds;
    while (epoch.size() < cycle_epochs || now_s() < end) {
      if (!ready.engine) ready.engine = warm_engine(stream, log);
      const std::size_t hi = std::min(at + kBatch, total);
      lacc::graph::EdgeList batch = slice(stream, at, hi);
      const double cpu0 = cpu_s();
      Call call(log, "epoch");
      {
        Call c(log, "ingest");
        ready.engine->ingest(batch);
        ingest.add(c.stop());
      }
      lacc::stream::EpochStats st;
      {
        Call c(log, "advance_epoch");
        st = ready.engine->advance_epoch();
        advance.add(c.stop());
      }
      epoch.add(call.stop());
      cpu.add(cpu_s() - cpu0);

      // Every edge of the batch must now join one component.
      bool ok = true;
      for (const auto& e : batch.edges)
        ok &= ready.engine->component_of(e.u) == ready.engine->component_of(e.v);
      report.check(ok, "batch edge not connected after advance_epoch");

      const auto& spmd = ready.engine->last_epoch_spmd();
      for (const auto& rank : spmd.stats)
        cycle_bytes += static_cast<double>(rank.total.bytes);
      cycle_modeled += st.modeled_seconds();
      if (epoch.size() <= cycle_epochs)
        replay_modeled.add(st.modeled_seconds());
      streamed += hi - at;
      at = hi;
      rebuilds += st.full_rebuild ? 1 : 0;
      iterations += static_cast<std::uint64_t>(st.iterations);
      relabeled += st.relabeled_vertices;
      if (traced) {
        counts.add(spmd);
        for (const auto& [name, c] :
             lacc::obs::max_over_ranks(spmd.stats).regions)
          regions[name].add(c);
      }
      if (at == total) {  // one full replay: verify, pin, start over
        bool same = matches_truth(stream, at, *ready.engine);
        same &= report.pin("cycle_modeled_s", cycle_modeled);
        same &= report.pin("cycle_bytes", cycle_bytes);
        report.check(same, "replay labels or modeled cost differ");
        cycle_modeled = cycle_bytes = 0;
        ready.engine.reset();
        at = stream.warm;
      }
    }
    if (ready.engine && at != stream.warm)
      report.check(matches_truth(stream, at, *ready.engine),
                   "stream labels differ from union-find");
    ready.engine.reset();

    const double n = static_cast<double>(epoch.size());
    if (!traced) {
      // Medians: the typical, incremental epoch.  Means are dominated by the
      // ~10% of epochs that take the rebuild path, and how many do so moves
      // with the seed in whole epochs.
      report.metric("host.op_cpu_ms", cpu.median() * 1e3);
      report.metric("modeled_ms", replay_modeled.median() * 1e3);
      report.metric("host.op_wall_ms_p50", epoch.median() * 1e3);
      report.metric("host.op_wall_ms_tail", epoch.quantile(kTail) * 1e3);
      report.line("untraced pass (op = one ingest+advance epoch):");
      report.figure("edges_per_s",
                    static_cast<double>(streamed) / (epoch.mean() * n), "1/s");
      report.figure("epoch_ms_p50", epoch.median() * 1e3, "ms", epoch.size());
      report.figure("epoch_ms_p95", epoch.quantile(kTail) * 1e3, "ms",
                    epoch.size());
      report.figure("epoch_cpu_ms_p50", cpu.median() * 1e3, "ms");
      report.figure("epoch_cpu_ms_mean", cpu.mean() * 1e3, "ms");
      report.figure("epoch_modeled_ms_p50", replay_modeled.median() * 1e3, "ms",
                    replay_modeled.size());
      report.figure("epoch_modeled_ms", replay_modeled.mean() * 1e3, "ms",
                    replay_modeled.size());
      return cpu;
    }
    report_session_counts(report, counts, epoch.size());
    report.metric("stream.ingest_us_p50", ingest.median() * 1e6);
    report.metric("stream.advance_ms_p50", advance.median() * 1e3);
    report.metric("stream.inc_share", 1.0 - static_cast<double>(rebuilds) / n);
    report.metric("stream.iterations_per_epoch",
                  static_cast<double>(iterations) / n);
    for (const char* region :
         {"filter", "dirty", "inc", "shortcut", "relabel", "rebuild"})
      report.metric(std::string("stream.") + region + "_modeled_us",
                    regions[std::string("stream-") + region].modeled_seconds() *
                        1e6 / n);
    if (relabeled > 0)
      report.metric("stream.bytes_per_relabel",
                    static_cast<double>(counts.bytes) /
                        static_cast<double>(relabeled));
    return cpu;
  });
}

}  // namespace perfbench
