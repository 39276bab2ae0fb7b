#!/usr/bin/env bash
# Builds the benchmarks and produces the machine-readable results:
#   BENCH_fig5.json        Figure 5 UDP RTT cells (paper-expected vs measured,
#                          per-host metrics, per-layer CPU breakdown)
#   BENCH_tab1.json        Section 4.2 TCP throughput cells
#   BENCH_fig5_trace.json  Chrome trace of the traced Ethernet ping-pong
#                          (open in chrome://tracing or Perfetto)
#   BENCH_micro.json       Demux scaling microbenchmark (linear guard scan
#                          vs compiled index, wall + simulated ns/raise)
#   BENCH_timer.json       Timer wheel microbenchmark (schedule+cancel and
#                          drain at 1k/16k/64k pending timers)
#   BENCH_alloc.json       Allocation microbenchmark (slab vs operator
#                          new/delete churn at the engine's hot object
#                          sizes, plus the SmallFn heap-fallback count)
#   BENCH_scale.json       Connection-scale workload (100..100k concurrent
#                          TCP clients against the in-kernel web server)
#   BENCH_overload.json    Overload sweep: goodput vs offered load 0.1x-10x,
#                          protected (rx ring + poll switch + bounded pool +
#                          deferred-queue shedding) vs unprotected, plus the
#                          HTTP-under-flood progress check
#   BENCH_chaos.json       Chaos recovery: per-fault recovery overhead and
#                          goodput retention vs link-flap intensity
#   BENCH_adversarial.json Hostile traffic: goodput retention under SYN flood
#                          (cookies on/off) and blind-RST spray, plus the
#                          1000-seed parser fuzz corpus verdict
# Also runs the gated microbenchmarks, whose exit statuses assert that
# disabled tracing adds no measurable cost to Event::Raise, that indexed
# dispatch at N=256 handlers is >=5x the linear scan, and that the timing
# wheel stays O(1) in the pending population (at 64k pending timers, drain
# ns/fire <=2.5x and schedule+cancel ns/pair <=3x their 1k values).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
OUT_DIR="${OUT_DIR:-.}"

# Run provenance for the plexus-bench-v1 meta block: every reporter stamps
# the git SHA it was produced from, suffixed "-dirty" when the working tree
# carries uncommitted changes (falls back to "unknown" outside a repo).
PLEXUS_GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if [ "$PLEXUS_GIT_SHA" != unknown ] && ! git diff --quiet HEAD 2>/dev/null; then
  PLEXUS_GIT_SHA="$PLEXUS_GIT_SHA-dirty"
fi
export PLEXUS_GIT_SHA

cmake -B "$BUILD_DIR" -S .  # RelWithDebInfo by default (top-level CMakeLists)
cmake --build "$BUILD_DIR" -j "$(nproc)" --target \
  bench_fig5_udp_latency bench_tab1_tcp_throughput bench_micro_dispatch \
  bench_micro_timer bench_micro_alloc bench_scale_connections \
  bench_overload_sweep bench_chaos bench_adversarial

"$BUILD_DIR/bench/bench_fig5_udp_latency" \
  --json "$OUT_DIR/BENCH_fig5.json" --trace "$OUT_DIR/BENCH_fig5_trace.json"
"$BUILD_DIR/bench/bench_tab1_tcp_throughput" --json "$OUT_DIR/BENCH_tab1.json"
"$BUILD_DIR/bench/bench_micro_dispatch" --benchmark_min_time=0.05 \
  --json "$OUT_DIR/BENCH_micro.json"
"$BUILD_DIR/bench/bench_micro_timer" --json "$OUT_DIR/BENCH_timer.json"
"$BUILD_DIR/bench/bench_micro_alloc" --json "$OUT_DIR/BENCH_alloc.json"
"$BUILD_DIR/bench/bench_scale_connections" --sizes 100,1000,10000,100000 \
  --json "$OUT_DIR/BENCH_scale.json"
"$BUILD_DIR/bench/bench_overload_sweep" --json "$OUT_DIR/BENCH_overload.json"
"$BUILD_DIR/bench/bench_chaos" --json "$OUT_DIR/BENCH_chaos.json"
"$BUILD_DIR/bench/bench_adversarial" --fuzz-seeds 1000 \
  --json "$OUT_DIR/BENCH_adversarial.json"

echo "bench artifacts: $OUT_DIR/BENCH_fig5.json $OUT_DIR/BENCH_tab1.json" \
     "$OUT_DIR/BENCH_fig5_trace.json $OUT_DIR/BENCH_micro.json" \
     "$OUT_DIR/BENCH_timer.json $OUT_DIR/BENCH_alloc.json" \
     "$OUT_DIR/BENCH_scale.json" \
     "$OUT_DIR/BENCH_overload.json" "$OUT_DIR/BENCH_chaos.json" \
     "$OUT_DIR/BENCH_adversarial.json"
