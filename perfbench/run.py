#!/usr/bin/env python3
"""The repository's benchmark: fixed workloads against the Plexus simulator.

One run, as BENCHMARK.json describes it (from the repository root):

    python3 perfbench/run.py --workload conn_churn --seed 1 --seconds 10 --trace 0

builds perfbench/ (CMake, into $CARGO_TARGET_DIR or .bench_build), runs the
workload for --seconds, checks its correctness gates, and prints a report
line followed by the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ledger, and the span records are written under the build
directory. Exit status is non-zero on any failed gate.

Steadiness tooling:

    --repeat N [--seed S]     run seeds S..S+N-1, print each metric's median,
                              quartiles and spread against its bound
    --save FILE               with --repeat: keep the values for --compare
    --compare OLD NEW         accept or reject NEW against OLD by the bounds
    --self-test               check the comparator rejects a synthetic
                              regression just past each bound
    --held-out                run the held-out seed (kept for final checks)

See perfbench/README.md for the metrics, the workloads and the layers.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("conn_churn", "bulk_tcp", "udp_flood", "paper_cells")
BUILD_TYPE = "RelWithDebInfo"
# A seed kept out of development runs; use it only to confirm a result.
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 170

# Clock and per-workload meaning of each end-to-end metric (README.md has
# the full table).
CLOCKS = {
    "setup_s": "host",
    "host_cpu_s": "host",
    "host_ns_per_frame": "host",
    "peak_rss_mb": "host",
    "sim_latency_p50_us": "virtual",
    "sim_latency_p99_us": "virtual",
    "sim_goodput_mbps": "virtual",
    "sim_cpu_ns_per_frame": "virtual",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (d if d.is_absolute() else ROOT / d) / "perfbench"


def build():
    """Configures (once) and builds perfbench; returns the binary's path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    # Configure until a configure has finished (it leaves the build files).
    if not ((out / "Makefile").exists() or (out / "build.ninja").exists()):
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return out / "perfbench"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the simulator and benchmark sources: identifies the code
    measured even where there is no git metadata."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for p in sorted(base.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def identity(seed):
    plexus_env = {k: v for k, v in sorted(os.environ.items()) if k.startswith("PLEXUS_")}
    return {
        "seed": seed,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "build_type": BUILD_TYPE,
        "nproc": os.cpu_count(),
        "plexus_env": plexus_env,
        # Any PLEXUS_* mode variable changes the engine under test.
        "comparable": not plexus_env,
    }


def median(values):
    return statistics.median(values)


def run_binary(binary, workload, seed, seconds, trace):
    trace_out = build_dir() / "traces" / f"{workload}-seed{seed}.spans.json"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--trace-out", str(trace_out)]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if r.stderr:
        log(r.stderr.rstrip())
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench: {workload} printed nothing (exit {r.returncode})")
    raw = json.loads(lines[-1])
    return raw, r.returncode, (trace_out if trace else None)


def end_to_end(raw):
    """The end-to-end metrics of one run, from the binary's raw report."""
    virt = raw["virtual"]
    cpu = median(raw["host_cpu_s"])
    return {
        "setup_s": median(raw["setup_s"]),
        "host_cpu_s": cpu,
        "host_ns_per_frame": cpu * 1e9 / raw["wire_frames"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "sim_latency_p50_us": virt["sim_latency_p50_us"],
        "sim_latency_p99_us": virt["sim_latency_p99_us"],
        "sim_goodput_mbps": virt["sim_goodput_mbps"],
        "sim_cpu_ns_per_frame": virt["sim_cpu_ns_per_frame"],
    }


def per_layer(raw, names):
    """The per-layer metrics of one traced run. A metric the workload does
    not exercise reads 0 (os.* outside paper_cells, for instance)."""
    layer, virt = raw["layer"], raw["virtual"]
    derived = {
        "error_ratio": raw["failed"] / raw["attempted"],
        "trace.host_cpu_s": median(raw["traced_host_cpu_s"]),
        "trace.overhead_ratio": median(raw["traced_host_cpu_s"]) / median(raw["host_cpu_s"]),
    }
    out = {}
    for n in names:
        for src in (derived, virt, layer):
            if n in src:
                out[n] = src[n]
                break
        else:
            out[n] = 0.0
    return out


def run_once(spec, workload, seed, seconds, trace, binary=None):
    """One benchmark run: returns (result line dict, report dict, ok)."""
    binary = binary or build()
    raw, code, trace_file = run_binary(binary, workload, seed, seconds, trace)
    failures = list(raw["failures"])
    if code != 0 and not failures:
        failures.append(f"perfbench exited {code}")
    if raw["failed"] != 0:
        failures.append(f"{raw['failed']} of {raw['attempted']} legitimate operations failed")
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer(raw, names)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = end_to_end(raw)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, v in values.items():
            if not (math.isfinite(v) and v > 0):
                failures.append(f"end-to-end metric {name} is not a positive number: {v}")
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    samples = dict(raw["samples"])
    samples.update({"setup_s": len(raw["setup_s"]), "host_cpu_s": len(raw["host_cpu_s"]),
                    "host_ns_per_frame": len(raw["host_cpu_s"])})
    report = {
        "report": "perfbench-v1",
        "workload": workload,
        "identity": identity(seed),
        "passes": len(raw["host_cpu_s"]),
        "wall_s": raw["wall_s"],
        "wire_frames": raw["wire_frames"],
        "error_ratio": raw["failed"] / max(1, raw["attempted"]),
        "gates": failures,
        "samples": {n: samples.get(n) for n in metrics},
        "clock": {n: CLOCKS.get(n, "ledger") for n in metrics},
        "virtual": raw["virtual"],
        # Every instrument read, including what per_layer leaves out:
        # per-host CPU busy time and per-slab peaks.
        "ledger": raw["layer"],
    }
    if trace_file:
        report["trace_file"] = os.path.relpath(trace_file, ROOT)
    result = {
        "correct": not failures,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    return result, report, not failures


# --- steadiness tooling -------------------------------------------------------------

def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), q1, med, q3


def compare(old, new, metric):
    """Accepts `new` unless its median is worse than `old`'s by more than the
    metric's bound. Returns (accepted, relative change toward worse)."""
    m_old, m_new = median(old), median(new)
    worse = (m_new - m_old) / m_old if metric["better"] == "lower" else (m_old - m_new) / m_old
    return worse <= metric["bound"], worse


def repeat(spec, workload, first_seed, n, seconds, save):
    binary = build()
    values = {m["name"]: [] for m in spec["end_to_end"]}
    all_ok = True
    for seed in range(first_seed, first_seed + n):
        result, _, ok = run_once(spec, workload, seed, seconds, 0, binary)
        all_ok &= ok
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        log(f"  {workload} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
    steady = True
    print(f"{workload}: {n} seeds from {first_seed}")
    print(f"  {'metric':<22} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
    for m in spec["end_to_end"]:
        s, q1, med, q3 = spread(values[m["name"]])
        # setup_s is exempt from the spread rule; its medians are compared.
        ok = m["name"] == "setup_s" or s <= m["bound"]
        steady &= ok
        verdict = "ok" if ok else "TOO NOISY"
        if ok and s > m["bound"] / 3:
            verdict = "ok (above a third of the bound)"
        print(f"  {m['name']:<22} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {s:>8.4f} {m['bound']:>6}  {verdict}")
    if save:
        Path(save).write_text(json.dumps({"workload": workload, "values": values}, indent=1))
    return all_ok and steady


def compare_files(spec, old_path, new_path):
    old, new = json.loads(Path(old_path).read_text()), json.loads(Path(new_path).read_text())
    accepted = True
    for m in spec["end_to_end"]:
        ok, worse = compare(old["values"][m["name"]], new["values"][m["name"]], m)
        accepted &= ok
        print(f"  {m['name']:<22} worse by {worse:+.4f} (bound {m['bound']}): "
              f"{'accept' if ok else 'REJECT'}")
    print("accepted" if accepted else "rejected")
    return accepted


def self_test(spec):
    """The comparator must reject a regression just past each bound and
    accept one just inside it; the spread rule must flag noise past it."""
    ok = True
    base = [100.0 * (1 + 0.002 * i) for i in range(10)]
    for m in spec["end_to_end"]:
        b = m["bound"]
        sign = 1 if m["better"] == "lower" else -1
        past = [v * (1 + sign * b * 1.02) for v in base]
        inside = [v * (1 + sign * b * 0.98) for v in base]
        better = [v * (1 - sign * b * 2) for v in base]
        checks = [
            ("rejects a regression just past the bound", not compare(base, past, m)[0]),
            ("accepts a change just inside the bound", compare(base, inside, m)[0]),
            ("accepts an improvement", compare(base, better, m)[0]),
        ]
        noisy = [100.0 * (1 + (b * 1.5 if i % 2 else -b * 0.5)) for i in range(10)]
        checks.append(("flags a spread past the bound", spread(noisy)[0] > b))
        for what, passed in checks:
            ok &= passed
            print(f"  {m['name']:<22} {what}: {'PASS' if passed else 'FAIL'}")
    print("self-test " + ("PASS" if ok else "FAIL"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--save")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--held-out", action="store_true")
    args = ap.parse_args()
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if args.self_test:
        return 0 if self_test(spec) else 1
    if args.compare:
        return 0 if compare_files(spec, *args.compare) else 1
    if not args.workload:
        ap.error("--workload is required")
    if args.repeat:
        return 0 if repeat(spec, args.workload, args.seed, args.repeat, seconds, args.save) else 1
    seed = HELD_OUT_SEED if args.held_out else args.seed
    result, report, ok = run_once(spec, args.workload, seed, seconds, args.trace)
    for name, m in result["metrics"].items():
        log(f"  {args.workload:<12} {name:<28} {m['value']:>16.6g} {m['unit']:<8} "
            f"[{report['clock'][name]}, n={report['samples'][name]}]")
    for g in report["gates"]:
        log(f"  GATE FAILED: {g}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
