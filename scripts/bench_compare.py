#!/usr/bin/env python3
"""Bench regression checker: diff a fresh plexus-bench-v1 JSON against a
checked-in baseline.

Records are matched by (experiment, device, system, metric). For each pair the
`measured` value is compared under a per-metric tolerance band:

  * deterministic metrics (simulated time / virtual CPU: unit mentions
    "sim", "us", "Mb/s", ...) get a tight both-sided relative band
    (default 5%) — these come off the virtual clock and only move when
    the engine's behaviour changes;
  * wall-clock metrics (unit mentions "wall") are REPORT-ONLY: they vary
    with host load, so drift is printed but never fails the check.

Exit status: 0 when every deterministic metric is inside its band, 1 on
any regression/improvement outside the band or a record present in the
baseline but missing from the fresh run (new records in the fresh run are
reported but allowed — the suite grows).

Runs of different packet engines are not comparable: the batched engine
legitimately moves virtual time. When both documents record `meta.engine`
("batched" or "per-packet") and the two differ, the checker refuses to
compare and exits 2, so a mode mismatch fails loudly instead of reading as
drift. A document without the field (written before the engine was
recorded) is compared as before.

`--self-test` proves the checker can actually fail: it re-reads the
baseline, injects a +25% regression into every deterministic metric, and
exits 0 only if the comparison (correctly) rejects the doctored run and a
copy of the baseline stamped with the other engine is refused.

Stdlib only; no third-party imports.
"""

import argparse
import json
import sys


ENGINES = ("batched", "per-packet")


def load_records(path):
    """Returns (engine, records): the run's recorded packet engine (None if
    unrecorded) and its records keyed by (experiment, device, system,
    metric)."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "plexus-bench-v1":
        raise SystemExit(f"{path}: not a plexus-bench-v1 document "
                         f"(schema={doc.get('schema')!r})")
    out = {}
    for rec in doc.get("records", []):
        key = (rec.get("experiment", ""), rec.get("device", ""),
               rec.get("system", ""), rec.get("metric", ""))
        if key in out:
            raise SystemExit(f"{path}: duplicate record key {key}")
        out[key] = rec
    return doc.get("meta", {}).get("engine"), out


def engine_mismatch(baseline_engine, fresh_engine):
    """The refusal message when both runs record an engine and they differ,
    else None."""
    if baseline_engine is None or fresh_engine is None:
        return None
    if baseline_engine == fresh_engine:
        return None
    return (f"engine mismatch: baseline ran the {baseline_engine} engine, "
            f"fresh run the {fresh_engine} engine; refusing to compare "
            f"(compare against the baseline of the same engine)")


def is_wall_clock(rec):
    unit = rec.get("unit", "").lower()
    metric = rec.get("metric", "").lower()
    return "wall" in unit or "wall" in metric


def relative_delta(baseline, fresh):
    if baseline == 0:
        return 0.0 if fresh == 0 else float("inf")
    return (fresh - baseline) / abs(baseline)


def compare(baseline, fresh, tolerance, exact_unit=None):
    """Returns (failures, lines): failure count and the full report.

    exact_unit: when set, any deterministic record whose unit contains this
    substring must match the baseline bit-for-bit (tolerance zero). Used to
    hard-gate virtual-time identity: scale records in sim_ns must not move
    at all, because the simulation is deterministic to the nanosecond.
    """
    failures = 0
    lines = []
    for key in sorted(baseline):
        label = "/".join(part for part in key if part)
        if key not in fresh:
            failures += 1
            lines.append(f"FAIL {label}: present in baseline, missing from "
                         f"fresh run")
            continue
        b = baseline[key]
        f = fresh[key]
        delta = relative_delta(b.get("measured", 0.0), f.get("measured", 0.0))
        pct = f"{delta * 100.0:+.2f}%"
        exact = (exact_unit is not None and not is_wall_clock(b)
                 and exact_unit in b.get("unit", ""))
        if is_wall_clock(b):
            lines.append(f"  ok {label}: {pct} (wall-clock, report-only)")
        elif exact:
            if b.get("measured") == f.get("measured"):
                lines.append(f"  ok {label}: identical (exact gate)")
            else:
                failures += 1
                lines.append(f"FAIL {label}: {b.get('measured')} -> "
                             f"{f.get('measured')} (exact gate: virtual time "
                             f"must be bit-identical)")
        elif abs(delta) <= tolerance:
            lines.append(f"  ok {label}: {pct} (within ±{tolerance:.0%})")
        else:
            failures += 1
            lines.append(f"FAIL {label}: {b.get('measured')} -> "
                         f"{f.get('measured')} ({pct}, band ±{tolerance:.0%})")
    for key in sorted(set(fresh) - set(baseline)):
        label = "/".join(part for part in key if part)
        lines.append(f" new {label}: not in baseline (allowed)")
    return failures, lines


def check(baseline_run, fresh_run, tolerance, exact_unit=None):
    """Compares two (engine, records) runs. Returns (status, lines): 0 pass,
    1 a metric outside its band or missing, 2 refused (engine mismatch)."""
    mismatch = engine_mismatch(baseline_run[0], fresh_run[0])
    if mismatch is not None:
        return 2, [mismatch]
    failures, lines = compare(baseline_run[1], fresh_run[1], tolerance,
                              exact_unit)
    if failures:
        lines.append(f"FAIL ({failures} metric(s) outside the band)")
        return 1, lines
    lines.append(f"PASS ({len(baseline_run[1])} baseline metric(s) checked)")
    return 0, lines


def self_test(baseline, tolerance):
    doctored = {}
    injected = 0
    for key, rec in baseline.items():
        rec = dict(rec)
        if not is_wall_clock(rec):
            rec["measured"] = rec.get("measured", 0.0) * 1.25
            injected += 1
        doctored[key] = rec
    if injected == 0:
        print("self-test FAIL: baseline has no deterministic records to "
              "doctor")
        return 1
    failures, _ = compare(baseline, doctored, tolerance)
    if failures != injected:
        print(f"self-test FAIL: only {failures}/{injected} injected "
              f"regressions detected")
        return 1
    print(f"self-test PASS: +25% injection rejected on all {injected} "
          f"deterministic metrics")
    # The baseline re-stamped with each engine: an unchanged copy passes
    # against its own engine and is refused against the other one.
    for ours, other in (ENGINES, ENGINES[::-1]):
        same, _ = check((ours, baseline), (ours, baseline), tolerance)
        crossed, _ = check((ours, baseline), (other, baseline), tolerance)
        if same != 0 or crossed != 2:
            print(f"self-test FAIL: {ours} baseline vs {ours} run exited "
                  f"{same} (want 0), vs {other} run exited {crossed} "
                  f"(want 2)")
            return 1
    print("self-test PASS: cross-engine comparison refused in both "
          "directions")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="checked-in plexus-bench-v1 JSON")
    parser.add_argument("fresh", nargs="?",
                        help="freshly produced JSON to check (omit with "
                             "--self-test)")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="both-sided relative band for deterministic "
                             "metrics (default 0.05 = 5%%)")
    parser.add_argument("--exact-unit", default=None,
                        help="deterministic records whose unit contains this "
                             "substring must match the baseline exactly "
                             "(e.g. sim_ns for virtual-time identity)")
    parser.add_argument("--self-test", action="store_true",
                        help="inject a +25%% regression into the baseline and "
                             "require the comparison to reject it, and "
                             "require a cross-engine comparison to be "
                             "refused")
    args = parser.parse_args()

    baseline = load_records(args.baseline)
    if args.self_test:
        return self_test(baseline[1], args.tolerance)
    if args.fresh is None:
        parser.error("fresh JSON required unless --self-test")

    status, lines = check(baseline, load_records(args.fresh), args.tolerance,
                          args.exact_unit)
    print(f"bench_compare: {args.fresh} vs baseline {args.baseline} "
          f"(±{args.tolerance:.0%} on deterministic metrics)")
    for line in lines[:-1]:
        print(line)
    print(f"bench_compare: {lines[-1]}")
    return status


if __name__ == "__main__":
    sys.exit(main())
