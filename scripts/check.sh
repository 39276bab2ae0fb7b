#!/usr/bin/env bash
# Builds the suite under AddressSanitizer + UndefinedBehaviorSanitizer and
# runs every tier-1 test seven times: plain, with PLEXUS_TRACE=1 (tracer
# recording), with PLEXUS_MBUF_POOL=small (starved 256-segment mbuf pool),
# with PLEXUS_CHAOS_FLAP=1 (mid-run link flap), with PLEXUS_PROFILE=1
# (wall-clock engine profiler armed), with PLEXUS_SLAB=off (slab
# allocators degraded to plain operator new/delete), and with
# PLEXUS_BATCH=off (rx bursts, batch dispatch, and GRO/GSO all disabled —
# the engine must degrade to the per-packet path byte-identically). Catches the memory
# bugs the fault-containment, tracing, overload-control, observability,
# and allocation machinery must never introduce (use-after-free across
# handler quarantine, fence lifetime mistakes during stack unwinding,
# dangling span frames across ring eviction, pool accounting races on
# drop paths, slab-gate behaviour divergence, ...).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build-sanitize}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPLEXUS_SANITIZE="address;undefined"
cmake --build "$BUILD_DIR" -j "$(nproc)"

export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}"
ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure "$@"

echo "=== second pass: tracer enabled (PLEXUS_TRACE=1) ==="
PLEXUS_TRACE=1 ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure "$@"

echo "=== third pass: starved mbuf pool (PLEXUS_MBUF_POOL=small) ==="
# 256-segment pools force the exhaustion paths (rx refill failures, tx
# ENOBUFS drops, TCP retransmit recovery) through the whole tier-1 suite,
# still under the sanitizers: exhaustion must degrade, never corrupt.
PLEXUS_MBUF_POOL=small ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure "$@"

echo "=== fourth pass: mid-run link flap (PLEXUS_CHAOS_FLAP=1) ==="
# Every medium briefly drops carrier at t=7.777ms: the whole tier-1 suite
# must tolerate a link blip in the middle of its workload (retransmission,
# ARP retry, and carrier-notification paths), still under the sanitizers.
PLEXUS_CHAOS_FLAP=1 ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure "$@"

echo "=== fifth pass: wall-clock profiler armed (PLEXUS_PROFILE=1) ==="
# The engine self-profiler records host time on every hot path; it must not
# perturb virtual time or memory-safety anywhere in the tier-1 suite.
PLEXUS_PROFILE=1 ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure "$@"

echo "=== sixth pass: slab allocators disabled (PLEXUS_SLAB=off) ==="
# Every pooled allocation degrades to plain operator new/delete (accounting
# intact): behaviour and virtual time must be identical with and without
# the slabs, and the heap path gets full sanitizer coverage.
PLEXUS_SLAB=off ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure "$@"

echo "=== seventh pass: batched packet path disabled (PLEXUS_BATCH=off) ==="
# The off-gate identity: with batching off the NIC delivers one frame per
# interrupt, RaiseBatch degrades to the per-item loop, and GRO/GSO never
# engage. The whole tier-1 suite must behave exactly as the per-packet
# engine did, still under the sanitizers.
PLEXUS_BATCH=off ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure "$@"

echo "=== slow pass: soak / scale suites (label: slow) ==="
# The connection-churn soak and other large-population suites run once,
# in their own labelled pass, still under the sanitizers.
ctest --test-dir "$BUILD_DIR" -L slow --output-on-failure "$@"

echo "=== perf smoke: demux index vs linear guard scan, timer wheel scaling ==="
# Wall-clock gates, so they run against the regular (non-sanitized) build:
# bench_micro_dispatch exits non-zero if indexed dispatch at N=256 handlers
# is not at least 5x faster than the linear path it replaces (and if
# disabled tracing taxes the raise path); bench_micro_timer exits non-zero
# unless the timing wheel stays O(1) in the pending population: at 64k
# pending timers, drain ns/fire within 2.5x and schedule+cancel ns/pair
# within 3x of their values at 1k pending.
PERF_BUILD_DIR="${PERF_BUILD_DIR:-build}"
cmake -B "$PERF_BUILD_DIR" -S .
cmake --build "$PERF_BUILD_DIR" -j "$(nproc)" --target bench_micro_dispatch \
  bench_micro_timer bench_overload_sweep bench_chaos bench_adversarial \
  bench_fig5_udp_latency bench_tab1_tcp_throughput bench_scale_connections
"$PERF_BUILD_DIR/bench/bench_micro_dispatch" --benchmark_filter=none
"$PERF_BUILD_DIR/bench/bench_micro_timer"

echo "=== overload gate: graceful degradation at 10x offered load ==="
# Exits non-zero unless the protected server's goodput at 10x stays >= 60%
# of its peak, interrupt->poll transitions occur and are traced, and the
# mbuf pool drains to zero after every run.
"$PERF_BUILD_DIR/bench/bench_overload_sweep"

echo "=== chaos gate: recovery + goodput retention under faults ==="
# Exits non-zero unless all faulted transfers complete byte-exactly,
# goodput retention at the standard flap (period 2s, down fraction 0.1)
# stays >= 60%, crash recovery stays under 10s of overhead, and every run
# drains leak-free with zero quarantines. The 1000-seed invariant sweep
# runs in the slow ctest pass above (chaos_property_test).
"$PERF_BUILD_DIR/bench/bench_chaos"

echo "=== adversarial gate: SYN flood, RST spray, and parser fuzz corpus ==="
# Exits non-zero unless SYN cookies hold >= 80% connection-churn goodput
# under a 1000 SYN/s spoofed flood (and the cookie-less listener visibly
# collapses), every blind-RST-sprayed transfer completes byte-exactly with
# challenge ACKs observed, the full 1000-seed structure-aware fuzz corpus
# runs with zero invariant failures, and every run drains leak-free with
# zero quarantines.
"$PERF_BUILD_DIR/bench/bench_adversarial" --fuzz-seeds 1000

# Both packet engines are gated: the default batched engine users run, and
# the per-packet engine PLEXUS_BATCH=off restores. Each engine has its own
# committed baselines in bench/baselines/: BENCH_<name>.batch.json for the
# batched engine, BENCH_<name>.json for the per-packet one. The per-packet
# baselines predate the batched path, so passing them doubles as the
# system-level proof that the off-gate really restores the old engine.
# bench_compare.py refuses to diff runs of different engines.
BENCH_TMP="$(mktemp -d)"
trap 'rm -rf "$BENCH_TMP"' EXIT
ENGINES=("on:.batch" "off:")  # PLEXUS_BATCH value : baseline suffix

echo "=== shape + bench regression gate: fig5/tab1 in both engines ==="
# Re-runs the two paper-figure benches under each engine. A bench exits
# non-zero, naming the claim, on any VIOLATED shape verdict, so these runs
# are the paper's shape gates; their deterministic (virtual-clock) metrics
# are then diffed against the same engine's baseline with a ±5% band.
# --self-test proves the comparator still rejects an injected regression
# and refuses a cross-engine comparison.
for engine in "${ENGINES[@]}"; do
  batch="${engine%%:*}" suffix="${engine#*:}"
  for bench in fig5:bench_fig5_udp_latency tab1:bench_tab1_tcp_throughput; do
    name="${bench%%:*}"
    PLEXUS_BATCH="$batch" "$PERF_BUILD_DIR/bench/${bench#*:}" \
      --json "$BENCH_TMP/BENCH_$name$suffix.json"
    python3 scripts/bench_compare.py "bench/baselines/BENCH_$name$suffix.json" \
      "$BENCH_TMP/BENCH_$name$suffix.json"
  done
done
python3 scripts/bench_compare.py bench/baselines/BENCH_fig5.json --self-test

echo "=== scale gate: virtual-time identity at 100..100k connections ==="
# Re-runs the full connection ladder (including the 100k rung) under each
# engine and diffs it against that engine's committed baseline. The sim_ns
# rows are an EXACT gate — the simulation is deterministic, so any drift in
# virtual time means engine behaviour changed; the wall rows are
# report-only (machine-dependent).
for engine in "${ENGINES[@]}"; do
  batch="${engine%%:*}" suffix="${engine#*:}"
  PLEXUS_BATCH="$batch" "$PERF_BUILD_DIR/bench/bench_scale_connections" \
    --sizes 100,1000,10000,100000 --json "$BENCH_TMP/BENCH_scale$suffix.json"
  python3 scripts/bench_compare.py "bench/baselines/BENCH_scale$suffix.json" \
    "$BENCH_TMP/BENCH_scale$suffix.json" --exact-unit sim_ns
done
