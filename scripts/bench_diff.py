#!/usr/bin/env python3
"""Compare two BENCH_*.json files and fail on regressions.

Usage: bench_diff.py BASELINE.json NEW.json [--tolerance 0.10]

Walks every numeric leaf of the baseline (dotted/indexed paths like
rows[3].agg), finds the same leaf in the new file, and flags any metric
that moved more than the tolerance in the *worse* direction. The DES
clock makes bench output deterministic, so the checked-in baselines are
exact: a >10% shift is a real behavior change, not noise.

Direction (is bigger better?) is resolved per leaf:
  * a leaf key listed in the baseline's top-level "higher_is_better"
    array is higher-is-better, no matter what the heuristics say
    (e.g. "events_per_sec", where the _s suffix would misread as a time);
  * else path fragments latency/elapsed/time/_ns/_us/_ms -> lower is better
  * else path fragments speedup/bandwidth/mflops/mbs/ratio/geomean
                                                     -> higher is better
  * otherwise the file's top-level "unit" decides: a time unit
    (ns/us/ms/s) means lower is better, anything else higher.

Per-metric tolerance overrides: a top-level "tolerances" object in the
baseline maps a leaf KEY (the path tail, e.g. "rtt_8b_ns") to the allowed
fractional worsening for every leaf with that key, replacing --tolerance
for those metrics only. Use it for metrics that are legitimately noisier
than the rest of the file (e.g. a p99 under a seeded fault plan).

Bounds: a top-level "bounds" object in the baseline maps a leaf KEY to an
inclusive {"min": x} and/or {"max": y}, applied to every leaf with that key
in the NEW file, whatever the baseline holds. A value outside its bound is
a regression. This is where a harness's single-metric floors and ceilings
live (e.g. "allreduce8_speedup_64": {"min": 2.0}). A malformed block, or a
key that matches no numeric leaf of the new file, is an error, so a typo
cannot make a gate vacuous.

The three blocks (higher_is_better, tolerances, bounds) are metadata, not
metrics: they are excluded from the leaf walk on both sides.

--selftest runs the built-in unit checks (tempfile fixtures) and exits;
the test suite and scripts/ci.sh invoke it so a broken diff gate fails
loudly instead of silently passing regressions.

Axis/config leaves (bytes, images, reps, ...) are compared for identity:
if the new file benchmarks a different shape, the diff is meaningless and
that is reported as an error. Missing keys are errors in BOTH directions,
each naming the metric and the file it is absent from: a leaf present in
the baseline but not in the new file means the bench dropped a metric; a
leaf present only in the new file means the bench grew one and the
checked-in baseline must be regenerated.

Exit status: 0 clean, 1 regression or structural mismatch, 2 usage.
"""

import argparse
import json
import sys

# Workload axes, not metrics: must match exactly between the two files.
AXIS_KEYS = {"bytes", "images", "nelems", "reps", "pairs", "iters", "seed",
             "locks", "updates", "buckets"}

LOWER_BETTER_HINTS = ("latency", "elapsed", "time", "_ns", "_us", "_ms")
HIGHER_BETTER_HINTS = ("speedup", "bandwidth", "mflops", "mbs", "ratio",
                       "geomean")
TIME_UNITS = {"ns", "us", "ms", "s", "usec", "nsec", "msec"}
METADATA_KEYS = ("higher_is_better", "tolerances", "bounds")


def leaves(node, path=""):
    """Yields (path, value) for every scalar leaf."""
    if isinstance(node, dict):
        for k in sorted(node):
            yield from leaves(node[k], f"{path}.{k}" if path else k)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from leaves(v, f"{path}[{i}]")
    else:
        yield path, node


def lower_is_better(path, default_lower, higher_keys):
    if last_key(path) in higher_keys:
        return False
    p = path.lower()
    if any(h in p for h in LOWER_BETTER_HINTS):
        return True
    if any(h in p for h in HIGHER_BETTER_HINTS):
        return False
    return default_lower


def last_key(path):
    tail = path.rsplit(".", 1)[-1]
    return tail.split("[", 1)[0]


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def valid_bounds(bounds):
    """True when every entry is a non-empty {"min"/"max": number} object."""
    return isinstance(bounds, dict) and all(
        isinstance(b, dict) and b and set(b) <= {"min", "max"} and
        all(is_number(v) for v in b.values())
        for b in bounds.values())


def check_bounds(bounds, new_leaves):
    """(regressions, errors): the leaves outside their bound, and the
    bounds keys that no numeric leaf of the new file carries."""
    outside, matched = [], set()
    for path, val in new_leaves.items():
        b = bounds.get(last_key(path))
        if b is not None and is_number(val):
            matched.add(last_key(path))
            if not b.get("min", val) <= val <= b.get("max", val):
                outside.append(f"{path}: {val} outside its bound {b}")
    return outside, [f"bounds key {k!r} matches no numeric leaf"
                     for k in sorted(set(bounds) - matched)]


def selftest():
    """Unit checks for the diff logic itself, on tempfile fixtures."""
    import os
    import tempfile

    def run(base_obj, new_obj, extra=None):
        paths = []
        for obj in (base_obj, new_obj):
            with tempfile.NamedTemporaryFile(
                    "w", suffix=".json", delete=False) as f:
                json.dump(obj, f)
                paths.append(f.name)
        saved = sys.argv
        sys.argv = [saved[0]] + paths + (extra or [])
        try:
            return main()
        finally:
            sys.argv = saved
            for p in paths:
                os.unlink(p)

    base = {"unit": "ns", "tolerances": {"rtt_ns": 0.50},
            "rtt_ns": 100, "bw_mbs": 100, "images": 8}
    checks = [
        # Identical files are clean.
        ("identical", run(base, dict(base)), 0),
        # +40% on rtt_ns breaches the default 10% but sits inside its
        # per-metric 50% override.
        ("override admits",
         run(base, {**base, "rtt_ns": 140}), 0),
        # +60% breaches even the override.
        ("override still binds",
         run(base, {**base, "rtt_ns": 160}), 1),
        # The override is keyed: it must not leak onto other metrics
        # (bw_mbs is higher-is-better; -21% is a regression).
        ("override does not leak",
         run(base, {**base, "bw_mbs": 79}), 1),
        # The tolerances block is metadata on both sides, never a metric:
        # a new file without it diffs clean.
        ("metadata excluded",
         run(base, {k: v for k, v in base.items() if k != "tolerances"}), 0),
        # A malformed block is an error, not a silent default.
        ("malformed rejected",
         run({**base, "tolerances": {"rtt_ns": "lots"}}, dict(base)), 1),
        # Axis identity and the default tolerance still apply.
        ("axis mismatch", run(base, {**base, "images": 16}), 1),
        ("default tolerance", run(base, {**base, "bw_mbs": 95}), 0),
        # Exact gating of deterministic records: at --tolerance 0 an
        # identical file passes and a 1-unit worsening fails.
        ("zero tolerance identical",
         run(base, dict(base), ["--tolerance", "0"]), 0),
        ("zero tolerance 1-unit worse",
         run(base, {**base, "bw_mbs": 99}, ["--tolerance", "0"]), 1),
    ]
    # Bounds gate the new file's values whatever the baseline holds, so
    # these cases run at a tolerance wide enough to admit every move.
    bounded = {"unit": "ns", "bounds": {"speedup": {"min": 2, "max": 10}},
               "rows": [{"speedup": 3}, {"speedup": 4}]}

    def speedups(a, b):
        rows = [{"speedup": a}, {"speedup": b}]
        return run(bounded, {**bounded, "rows": rows}, ["--tolerance", "99"])

    def with_bounds(b):
        return run({**bounded, "bounds": b}, dict(bounded))

    checks += [
        ("bounds hold", run(bounded, dict(bounded)), 0),
        ("bound min violated", speedups(1.9, 4), 1),
        ("bound max violated", speedups(3, 10.5), 1),
        # A key-wide bound reaches every leaf with that key.
        ("bound hits a later row", speedups(3, 1), 1),
        ("bounds inclusive", speedups(2, 10), 0),
        ("malformed bounds rejected", with_bounds({"speedup": {"lo": 2}}), 1),
        ("empty bound rejected", with_bounds({"speedup": {}}), 1),
        ("unmatched bounds key rejected",
         with_bounds({"speedpu": {"min": 2}}), 1),
        # The block is baseline metadata: a new file without it diffs clean.
        ("bounds absent from new file",
         run(bounded, {k: v for k, v in bounded.items() if k != "bounds"}), 0),
    ]
    failed = [name for name, got, want in checks if got != want]
    for name, got, want in checks:
        if got != want:
            print(f"bench_diff selftest FAIL: {name}: exit {got}, "
                  f"want {want}", file=sys.stderr)
    print(f"bench_diff selftest: {len(checks) - len(failed)}/{len(checks)} "
          f"cases passed")
    return 1 if failed else 0


def main():
    if "--selftest" in sys.argv[1:]:
        return selftest()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("new")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed fractional worsening (default 0.10)")
    args = ap.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)

    default_lower = str(base.get("unit", "")).lower() in TIME_UNITS
    higher_keys = frozenset(base.get("higher_is_better", []))
    if not isinstance(base.get("higher_is_better", []), list):
        print("bench_diff ERROR: top-level higher_is_better must be a list",
              file=sys.stderr)
        return 1
    tolerances = base.get("tolerances", {})
    if not isinstance(tolerances, dict) or not all(
            is_number(v) for v in tolerances.values()):
        print("bench_diff ERROR: top-level tolerances must map metric keys "
              "to numbers", file=sys.stderr)
        return 1
    bounds = base.get("bounds", {})
    if not valid_bounds(bounds):
        print("bench_diff ERROR: top-level bounds must map metric keys to "
              '{"min": x} and/or {"max": y}', file=sys.stderr)
        return 1
    for meta in METADATA_KEYS:
        base.pop(meta, None)
        new.pop(meta, None)
    new_leaves = dict(leaves(new))
    regressions, errors = check_bounds(bounds, new_leaves)
    improvements = 0
    compared = 0

    base_leaves = dict(leaves(base))
    for path in new_leaves:
        if path not in base_leaves:
            errors.append(
                f"metric {path} present in {args.new} but missing from "
                f"baseline {args.baseline} (regenerate the baseline)")

    for path, bval in leaves(base):
        if path not in new_leaves:
            errors.append(
                f"metric {path} present in baseline {args.baseline} but "
                f"missing from {args.new}")
            continue
        nval = new_leaves[path]
        if not is_number(bval):
            if bval != nval:
                errors.append(f"{path}: label changed {bval!r} -> {nval!r}")
            continue
        if not is_number(nval):
            errors.append(f"{path}: numeric -> non-numeric {nval!r}")
            continue
        if last_key(path) in AXIS_KEYS:
            if bval != nval:
                errors.append(f"{path}: axis changed {bval} -> {nval}")
            continue
        compared += 1
        if bval == 0:
            if nval != 0:
                errors.append(f"{path}: baseline 0, new {nval}")
            continue
        change = (nval - bval) / abs(bval)  # >0 = bigger
        # gain > 0 = moved in the good direction for this metric.
        gain = (-change
                if lower_is_better(path, default_lower, higher_keys)
                else change)
        tol = tolerances.get(last_key(path), args.tolerance)
        if gain < -tol:
            regressions.append(
                f"{path}: {bval} -> {nval} ({100 * change:+.1f}%, "
                f"tol {tol:.0%})")
        elif gain > tol:
            improvements += 1

    for e in errors:
        print(f"bench_diff ERROR: {e}", file=sys.stderr)
    for r in regressions:
        print(f"bench_diff REGRESSION: {r}", file=sys.stderr)
    status = 1 if errors or regressions else 0
    print(f"bench_diff: {compared} metrics compared, {len(bounds)} bounds, "
          f"{len(regressions)} regressions, {improvements} improvements, "
          f"{len(errors)} errors "
          f"({args.baseline} vs {args.new}, tol {args.tolerance:.0%})")
    return status


if __name__ == "__main__":
    sys.exit(main())
