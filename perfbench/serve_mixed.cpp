// serve-mixed: a shard::Router with 2 shards x 1 virtual rank and 2
// replicas, fed the shuffled eukarya stand-in.  Three load threads share
// the tier, all open loop on seeded schedules:
//
//   writer  insert_edge at a fixed rate below capacity
//   reader  component_of / same_component alternating across replicas
//   probe   watches every replica snapshot's covered() watermarks and
//           stamps each write visible when the first replica covers it
//
// Write -> visible crosses the ingest queue, micro-batching, the shard
// epoch (including the rebuild path stream-inc skips), the quotient
// reconcile and the replica publish; reads touch only replica snapshots.
// Every operation is timed from its due time, so a stalled generator shows
// up as latency and lateness, not as a quietly lower rate.
//
// Batches close at a fixed size (the deadline is far beyond the fill time
// at this rate), so the shard epochs — and with them the router's CPU and
// modeled cost per write — do not depend on host timing.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "baselines/union_find.hpp"
#include "bench.hpp"
#include "core/options.hpp"
#include "graph/generators.hpp"
#include "shard/router.hpp"
#include "sim/machine.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using lacc::VertexId;
using lacc::serve::ServeStatus;

constexpr double kScale = 1.0;  // eukarya stand-in: 24576 * scale vertices
constexpr int kShards = 2;
constexpr int kReplicas = 2;
// Shard engines and the reconcile's boundary LACC both run 1-rank sessions:
// no barrier spinning, so the router's CPU is its work, not the host's
// scheduling noise.
constexpr int kShardRanks = 1;
constexpr double kWriteRate = 1000;  // inserts per second
constexpr double kReadRate = 1000;   // reads per second
constexpr std::size_t kBatchEdges = 32;  // ~64 ms to fill per shard
constexpr double kBatchWindowMs = 5000;
constexpr double kReconcileMs = 250;
// A fresh router stalls visibility for ~0.5 s in its first second; a small
// warm load before the timed phase gets past that.
constexpr std::size_t kWarmEdges = 2048;
constexpr double kTail = 0.99;
constexpr double kDrainSeconds = 30;  // visibility deadline after the last write

lacc::graph::EdgeList shuffled_eukarya(std::uint64_t seed) {
  const auto n = static_cast<VertexId>(std::round(24576 * kScale));
  auto el = lacc::graph::permute_vertices(
      lacc::graph::clustered_components(n, n / 20, 22.0, sub_seed(seed, 1)),
      sub_seed(seed, 2));
  lacc::Xoshiro256 rng(sub_seed(seed, 3));
  std::shuffle(el.edges.begin(), el.edges.end(), rng);
  return el;
}

std::unique_ptr<lacc::shard::Router> warm_router(
    const lacc::graph::EdgeList& stream, CallLog& log) {
  lacc::shard::RouterOptions options;
  options.shards = kShards;
  options.replicas = kReplicas;
  options.serve.admission = lacc::serve::Admission::kShed;
  options.serve.batch_max_edges = kBatchEdges;
  options.serve.batch_window_ms = kBatchWindowMs;
  options.reconcile_interval_ms = kReconcileMs;
  options.reconcile_ranks = kShardRanks;
  auto router = std::make_unique<lacc::shard::Router>(
      stream.n, kShardRanks, lacc::sim::MachineModel::edison(), options);
  Call call(log, "warm_load");
  for (std::size_t i = 0; i < kWarmEdges; ++i) {
    const auto& e = stream.edges[i];
    LACC_CHECK(router->insert_edge(e.u, e.v).status == ServeStatus::kOk);
  }
  router->flush();
  return router;
}

/// Sleep until shortly before `due`, then spin: keeps the open-loop
/// schedule precise without burning a core between operations.
void wait_until(double due) {
  const double lead = due - now_s() - 60e-6;
  if (lead > 0)
    std::this_thread::sleep_for(std::chrono::duration<double>(lead));
  while (now_s() < due) {
  }
}

struct PendingWrite {
  std::uint64_t seq;
  double due;
  VertexId u, v;
};

/// Router counters at one instant, to take the timed phase's share.
struct Counters {
  std::uint64_t batches = 0, batched = 0, shed = 0, rounds = 0, words = 0;
  double reconcile_modeled = 0;
  std::vector<std::uint64_t> epochs;  ///< per shard

  explicit Counters(const lacc::shard::Router& router) {
    const auto st = router.stats();
    for (const auto& s : st.shard_stats) {
      batches += s.batches;
      batched += s.batched_edges;
      shed += s.writes_shed;
      epochs.push_back(s.current_epoch);
    }
    rounds = st.reconcile_rounds;
    words = st.boundary_words_moved;
    reconcile_modeled = st.reconcile_modeled_seconds;
  }
};

}  // namespace

void serve_mixed(const Args& args, Report& report) {
  CallLog& main_log = report.logs.emplace_back(0);
  Samples setup, gen;
  struct Ready {
    lacc::graph::EdgeList stream;
    std::unique_ptr<lacc::shard::Router> router;
  };
  Ready ready = repeat_setup(3, setup, [&] {
    const double t0 = cpu_s();
    auto stream = [&] {
      Call call(main_log, "generate");
      return shuffled_eukarya(args.seed);
    }();
    gen.add(cpu_s() - t0);
    auto router = warm_router(stream, main_log);
    return Ready{std::move(stream), std::move(router)};
  });
  report.metric("setup_s", setup.median());
  report.metric("graph.gen_s", gen.median());
  const lacc::graph::EdgeList& stream = ready.stream;
  const VertexId n = stream.n;
  report.line("serve-mixed: eukarya stand-in, " + std::to_string(n) +
              " vertices, warm " + std::to_string(kWarmEdges) + " of " +
              std::to_string(stream.size()) + " edges, " +
              std::to_string(kShards) + " shards x " +
              std::to_string(kShardRanks) + " rank, " +
              std::to_string(kReplicas) + " replicas, " +
              std::to_string(kBatchEdges) + "-edge batches, open loop " +
              std::to_string(static_cast<int>(kWriteRate)) + " writes/s + " +
              std::to_string(static_cast<int>(kReadRate)) + " reads/s");
  int pass_index = 0;

  run_passes(args, report, [&](double seconds, bool traced) {
    if (!ready.router) ready.router = warm_router(stream, main_log);
    lacc::shard::Router& router = *ready.router;
    const std::uint64_t pass_seed = sub_seed(args.seed, 100 + pass_index++);
    const auto writes = std::min<std::size_t>(
        stream.size() - kWarmEdges,
        static_cast<std::size_t>(seconds * kWriteRate));
    const auto reads = static_cast<std::size_t>(seconds * kReadRate);

    // Written by the writer, drained by the probe (FIFO per shard: one
    // writer, so each shard's seqs arrive in increasing order).
    std::mutex pending_mu;
    std::deque<PendingWrite> pending[kShards];
    std::atomic<bool> writer_done{false};

    Samples visible, insert_wall, write_late, read_latency, read_late;
    std::uint64_t shed = 0, write_errors = 0, read_errors = 0, wrong = 0,
                  violations = 0, unresolved = 0, depth_max = 0;
    double load_cpu[3] = {};  // CPU of the writer, reader and probe threads
    CallLog& wlog = report.logs.emplace_back(1);
    CallLog& rlog = report.logs.emplace_back(2);
    CallLog& plog = report.logs.emplace_back(3);

    const Counters before(router);
    const double cpu0 = cpu_s();
    const double t0 = now_s() + 0.01;
    std::thread writer([&] {
      for (std::size_t i = 0; i < writes; ++i) {
        const double due = t0 + static_cast<double>(i) / kWriteRate;
        wait_until(due);
        write_late.add(now_s() - due);
        const auto& e = stream.edges[kWarmEdges + i];
        Call call(wlog, "insert_edge");
        const auto result = router.insert_edge(e.u, e.v);
        insert_wall.add(call.stop());
        if (result.status == ServeStatus::kShed) {
          ++shed;
        } else if (result.status != ServeStatus::kOk ||
                   result.ticket.marks.size() != 1) {
          ++write_errors;
        } else {
          const auto [shard, seq] = result.ticket.marks[0];
          const std::lock_guard lock(pending_mu);
          pending[shard].push_back({seq, due, e.u, e.v});
        }
      }
      writer_done.store(true, std::memory_order_release);
      load_cpu[0] = thread_cpu_s();
    });
    std::thread reader([&] {
      lacc::Xoshiro256 rng(pass_seed);
      for (std::size_t j = 0; j < reads; ++j) {
        const double due = t0 + static_cast<double>(j) / kReadRate;
        wait_until(due);
        read_late.add(now_s() - due);
        const auto u = static_cast<VertexId>(rng() % n);
        const auto v = static_cast<VertexId>(rng() % n);
        const int replica = static_cast<int>(j % kReplicas);
        lacc::serve::ReadResult r;
        if (j % 2 == 0) {
          Call call(rlog, "component_of");
          r = router.component_of(u, {}, replica);
        } else {
          Call call(rlog, "same_component");
          r = router.same_component(u, v, {}, replica);
        }
        read_latency.add(now_s() - due);
        if (r.status != ServeStatus::kOk)
          ++read_errors;
        else if (j % 2 == 0 && r.label > u)  // labels are component minima
          ++wrong;
      }
      load_cpu[1] = thread_cpu_s();
    });
    std::thread probe([&] {
      std::uint64_t seen[kReplicas] = {};
      double drain_deadline = 0;
      for (;;) {
        bool idle = true;
        for (int r = 0; r < kReplicas; ++r) {
          const auto snap = router.snapshot(r);
          if (snap->epoch() == seen[r]) continue;
          seen[r] = snap->epoch();
          Call call(plog, "covered");
          const double now = now_s();
          const auto& labels = snap->view().labels();
          const std::lock_guard lock(pending_mu);
          for (int s = 0; s < kShards; ++s) {
            auto& q = pending[s];
            const auto covered = snap->covered()[static_cast<std::size_t>(s)];
            while (!q.empty() && q.front().seq <= covered) {
              const auto& w = q.front();
              visible.add(now - w.due);
              // Covered means connected: the read-your-writes guarantee.
              if (labels[w.u] != labels[w.v]) ++violations;
              q.pop_front();
              idle = false;
            }
            depth_max =
                std::max(depth_max, router.shard(s).stats().queue_depth);
          }
        }
        if (writer_done.load(std::memory_order_acquire)) {
          std::size_t left = 0;
          {
            const std::lock_guard lock(pending_mu);
            for (const auto& q : pending) left += q.size();
          }
          if (left == 0) break;
          if (drain_deadline == 0) {
            drain_deadline = now_s() + kDrainSeconds;
            router.flush();  // close the last partial batches
          }
          if (now_s() > drain_deadline) {
            unresolved = left;
            break;
          }
        }
        if (idle) std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      load_cpu[2] = thread_cpu_s();
    });
    writer.join();
    reader.join();
    probe.join();
    router.flush();
    const double router_cpu =
        cpu_s() - cpu0 - load_cpu[0] - load_cpu[1] - load_cpu[2];
    const Counters after(router);

    // Final answer: every replica's labels after flush against union-find
    // of the accepted writes.
    lacc::graph::EdgeList accepted(n);
    accepted.edges.assign(
        stream.edges.begin(),
        stream.edges.begin() +
            static_cast<std::ptrdiff_t>(kWarmEdges + writes));
    const auto truth = lacc::baselines::union_find_cc(accepted).parent;
    bool final_ok = shed == 0;
    for (int r = 0; r < kReplicas; ++r)
      final_ok &= lacc::core::same_partition(
          router.snapshot(r)->view().labels(), truth);
    router.stop();

    report.attempted += writes + reads + 1;
    const std::uint64_t failed = shed + write_errors + read_errors + wrong +
                                 violations + unresolved + (final_ok ? 0 : 1);
    report.failed += failed;
    if (failed > 0) {
      report.correct = false;
      report.errors.push_back(
          "serve-mixed: shed " + std::to_string(shed) + ", write errors " +
          std::to_string(write_errors) + ", read errors " +
          std::to_string(read_errors) + ", wrong reads " +
          std::to_string(wrong) + ", visibility violations " +
          std::to_string(violations) + ", never visible " +
          std::to_string(unresolved) +
          (final_ok ? "" : ", final labels differ from union-find"));
    }

    // Shard engine epochs of the timed phase (the warm load's excluded).
    double engine_modeled = 0;
    std::uint64_t epochs = 0, rebuilds = 0, iterations = 0;
    for (int s = 0; s < kShards; ++s) {
      const auto& history = router.shard(s).engine_history();
      for (std::size_t e = before.epochs[static_cast<std::size_t>(s)];
           e < history.size(); ++e) {
        engine_modeled += history[e].modeled_seconds();
        ++epochs;
        rebuilds += history[e].full_rebuild ? 1 : 0;
        iterations += static_cast<std::uint64_t>(history[e].iterations);
      }
    }
    const double reconcile_modeled =
        after.reconcile_modeled - before.reconcile_modeled;
    const double per_write = 1.0 / static_cast<double>(writes);
    const double modeled = (engine_modeled + reconcile_modeled) * per_write;
    double commit = 0;
    for (int s = 0; s < kShards; ++s)
      commit += router.shard(s).stats().commit_p50 / kShards;
    ready.router.reset();

    Samples cpu;
    cpu.add(router_cpu * per_write);
    if (!traced) {
      report.metric("host.op_cpu_ms", router_cpu * per_write * 1e3);
      report.metric("modeled_ms", modeled * 1e3);
      report.metric("host.op_wall_ms_p50", visible.median() * 1e3);
      report.metric("host.op_wall_ms_tail", visible.quantile(kTail) * 1e3);
      report.line("untraced pass (op = one write; latencies from due time):");
      report.figure("visible_ms_p50", visible.median() * 1e3, "ms",
                    visible.size());
      report.figure("visible_ms_p99", visible.quantile(kTail) * 1e3, "ms",
                    visible.size());
      report.figure("read_us_p50", read_latency.median() * 1e6, "us",
                    read_latency.size());
      report.figure("read_us_p99", read_latency.quantile(kTail) * 1e6, "us",
                    read_latency.size());
      report.figure("write_late_us_p99", write_late.quantile(kTail) * 1e6,
                    "us");
      report.figure("write_late_us_max", write_late.max() * 1e6, "us");
      report.figure("read_late_us_p99", read_late.quantile(kTail) * 1e6, "us");
      report.figure("read_late_us_max", read_late.max() * 1e6, "us");
      report.figure("write_cpu_ms", router_cpu * per_write * 1e3, "ms");
      report.figure("write_modeled_ms", modeled * 1e3, "ms");
      report.figure("engine_modeled_ms", engine_modeled * per_write * 1e3,
                    "ms");
      return cpu;
    }
    const double batches = static_cast<double>(after.batches - before.batches);
    const double rounds = static_cast<double>(after.rounds - before.rounds);
    report.metric("serve.insert_us_p99", insert_wall.quantile(kTail) * 1e6);
    if (batches > 0)
      report.metric(
          "serve.edges_per_batch",
          static_cast<double>(after.batched - before.batched) / batches);
    report.metric("serve.commit_ms_p50", commit * 1e3);
    report.metric("serve.queue_depth_max", static_cast<double>(depth_max));
    report.metric("serve.shed", static_cast<double>(after.shed - before.shed));
    report.metric("serve.read_us_p50", read_latency.median() * 1e6);
    report.metric("serve.read_us_p99", read_latency.quantile(kTail) * 1e6);
    report.metric(
        "serve.lateness_us_p99",
        std::max(write_late.quantile(kTail), read_late.quantile(kTail)) * 1e6);
    report.metric("serve.lateness_us_max",
                  std::max(write_late.max(), read_late.max()) * 1e6);
    report.metric("shard.reconcile_rounds", rounds);
    if (rounds > 0) {
      report.metric("shard.reconcile_modeled_ms",
                    reconcile_modeled * 1e3 / rounds);
      report.metric("shard.boundary_words_per_round",
                    static_cast<double>(after.words - before.words) / rounds);
    }
    if (epochs > 0) {
      report.metric("stream.inc_share",
                    1.0 - static_cast<double>(rebuilds) /
                              static_cast<double>(epochs));
      report.metric("stream.iterations_per_epoch",
                    static_cast<double>(iterations) /
                        static_cast<double>(epochs));
    }
    return cpu;
  });
}

}  // namespace perfbench
