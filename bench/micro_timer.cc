// Microbenchmark for the simulator's event queue, the hierarchical timing
// wheel: schedule+cancel throughput and drain cost at connection-scale
// pending-timer populations.
//
// The workload is the TCP regime that motivated the wheel: a large stable
// population of pending timers (RTO / delack / 2MSL) where nearly every
// timer is cancelled and re-armed before it fires — each ACK disarms and
// re-arms the retransmit timer. The wheel pays O(1) per schedule and per
// eager cancel, and amortized O(levels) per fire.
//
// Exit status is the perf gate, the wheel's own O(1) claim measured against
// its cost at 1k pending timers: at 64k pending, drain ns/fire must stay
// within 2.5x and schedule+cancel ns/pair within 3x of their 1k values.
// A binary heap in its place measures a 3.6-6.1x drain ratio and fails
// the first bound; an O(n) cancel fails the second. A uniform
// constant-factor slowdown is not this gate's subject (the end-to-end
// host-CPU benchmark covers that).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "sim/simulator.h"

namespace {

// Deterministic 64-bit mix for delay spreading (splitmix64 step).
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Timer horizons drawn from the TCP mix: 1ms..~64s (delack through backed-off
// RTO and 2MSL), hitting several wheel levels.
sim::Duration DelayFor(std::uint64_t k) {
  const std::int64_t span = sim::Duration::Seconds(64).ns() - 1000000;
  return sim::Duration::Nanos(
      1000000 + static_cast<std::int64_t>(Mix(k) % static_cast<std::uint64_t>(span)));
}

int g_fired = 0;

// Steady-state ns per (cancel + re-schedule) pair at `pending` outstanding
// timers. Best of `trials` fresh simulators.
double SchedCancelNsPerPair(int pending, int pairs, int trials = 5) {
  double best = 1e100;
  for (int t = 0; t < trials; ++t) {
    sim::Simulator sim;
    std::vector<sim::EventId> ids(static_cast<std::size_t>(pending));
    for (int i = 0; i < pending; ++i) {
      ids[static_cast<std::size_t>(i)] =
          sim.Schedule(DelayFor(static_cast<std::uint64_t>(i)), [] { ++g_fired; });
    }
    std::size_t slot = 0;
    std::uint64_t k = static_cast<std::uint64_t>(pending);
    const auto start = std::chrono::steady_clock::now();
    for (int p = 0; p < pairs; ++p) {
      // The exact disarm/re-arm sequence of TcpConnection::CancelTimer +
      // ArmRexmt: probe, cancel, schedule.
      if (sim.IsPending(ids[slot])) sim.Cancel(ids[slot]);
      ids[slot] = sim.Schedule(DelayFor(k++), [] { ++g_fired; });
      slot = (slot + 1) % ids.size();
    }
    const auto stop = std::chrono::steady_clock::now();
    const double ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                stop - start)
                                .count()) /
        pairs;
    if (ns < best) best = ns;
  }
  return best;
}

// ns per fire when draining `pending` timers to empty (pop-side cost,
// including cascades).
double DrainNsPerFire(int pending, int trials = 5) {
  double best = 1e100;
  for (int t = 0; t < trials; ++t) {
    sim::Simulator sim;
    for (int i = 0; i < pending; ++i) {
      sim.Schedule(DelayFor(static_cast<std::uint64_t>(i)), [] { ++g_fired; });
    }
    const auto start = std::chrono::steady_clock::now();
    const std::size_t fired = sim.Run();
    const auto stop = std::chrono::steady_clock::now();
    const double ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                stop - start)
                                .count()) /
        static_cast<double>(fired);
    if (ns < best) best = ns;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::ArgAfter(argc, argv, "--json");
  bench::JsonReporter reporter;

  std::printf("timer wheel: schedule+cancel pairs and drain vs pending timers\n");
  std::printf("(the per-ACK disarm/re-arm pattern of N concurrent TCP connections)\n\n");
  std::printf("  %8s | %10s %10s\n", "pending", "ns/pair", "drain ns");

  constexpr int kSmall = 1024;
  constexpr int kLarge = 65536;
  double pair_small = 0, pair_large = 0, drain_small = 0, drain_large = 0;
  for (const int pending : {kSmall, 16384, kLarge}) {
    const double pair = SchedCancelNsPerPair(pending, 200000);
    const double drain = DrainNsPerFire(pending);
    std::printf("  %8d | %10.1f %10.1f\n", pending, pair, drain);
    if (pending == kSmall) {
      pair_small = pair;
      drain_small = drain;
    } else if (pending == kLarge) {
      pair_large = pair;
      drain_large = drain;
    }
    bench::BenchRecord r;
    r.experiment = "micro_timer_queue";
    r.device = "wall-clock";
    r.system = "wheel";
    r.metric = "sched_cancel_n" + std::to_string(pending);
    r.unit = "ns/pair";
    r.measured = pair;
    r.paper_expected = "n/a (scheduler scaling)";
    r.metrics_json = "{\"pending\":" + std::to_string(pending) +
                     ",\"drain_ns_per_fire\":" + std::to_string(drain) + "}";
    reporter.Add(std::move(r));
  }

  int rc = 0;
  if (!json_path.empty() && !reporter.WriteTo(json_path)) {
    std::fprintf(stderr, "FAIL: could not write %s\n", json_path.c_str());
    rc = 1;
  }
  const double drain_ratio = drain_large / drain_small;
  const double pair_ratio = pair_large / pair_small;
  std::printf("\n  64k/1k ratio: drain %.2fx (gate <= 2.5x), schedule+cancel %.2fx "
              "(gate <= 3x)\n",
              drain_ratio, pair_ratio);
  if (drain_ratio > 2.5) {
    std::fprintf(stderr,
                 "FAIL: drain at 64k pending costs %.2fx its 1k value (gate: <= 2.5x) "
                 "— pops are not O(1) in the pending population\n",
                 drain_ratio);
    rc = 1;
  }
  if (pair_ratio > 3.0) {
    std::fprintf(stderr,
                 "FAIL: schedule+cancel at 64k pending costs %.2fx its 1k value "
                 "(gate: <= 3x) — schedule or cancel is not O(1)\n",
                 pair_ratio);
    rc = 1;
  }
  if (rc == 0) std::printf("  timer gate PASS\n");
  return rc;
}
