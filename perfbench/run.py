#!/usr/bin/env python3
"""Repository benchmark: builds the harness, runs one workload, prints metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The harness (perfbench/harness.cpp) is built
from ../src into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench).

--seed expands into SCENARIOS[workload] scenario seeds (seed * 16 + i). Every
harness process runs one scenario of one workload, fresh; the scenarios are
cycled until --seconds have passed and each has run at least once (and at
least MIN_REPS processes have run). Host-clock metrics are medians over all
processes; the end-to-end ones (host_s, setup_s) are first scaled to the
reference host speed, REF_NOMINAL_S / host.ref_s of the same process (see
perfbench/README.md, "Noise"). Virtual-clock metrics are exact per
scenario, must agree bit for bit whenever a scenario repeats, and are
reported as the median over the scenarios.

--trace 0 prints the end-to-end metrics. --trace 1 runs scenario 0 only,
alternating untraced and traced processes, and prints the per-layer
metrics: host-side layer numbers from the untraced processes, span and
analyzer numbers from the traced ones, and the tracing overhead from the
two. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is non-zero when any check
fails. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Scenarios per seed. failover's fault round is chaotic (README.md, "Noise"),
# so its typical behaviour is the median over seven fault draws.
SCENARIOS = {"himeno": 1, "dht_locks": 5, "dht_rpc": 1, "failover": 7}
MIN_REPS = 3          # processes per run, whatever --seconds says
RUN_BUDGET_S = 165.0  # start no process that would end past this (limit 180 s)
CHILD_TIMEOUT_S = 150.0
# Seconds the harness's reference loop takes on an uncontended core of the
# 4-core x86-64 VM the benchmark was tuned on. host_s and setup_s are the
# raw seconds times REF_NOMINAL_S / host.ref_s of the same process.
REF_NOMINAL_S = 0.055

# name -> (unit, source). "host": median over processes; "speed": the same,
# scaled to the reference host speed; "virt": exact per scenario, median
# over scenarios.
END_TO_END = {
    "host_s": ("s", "speed"),
    "setup_s": ("s", "speed"),
    "peak_rss_mb": ("MB", "host"),
    "virt_ms": ("ms", "virt"),
    "virt_op_p50_us": ("us", "virt"),
    "virt_op_p99_us": ("us", "virt"),
}

CALLS = ("lock", "unlock", "get", "put", "rpc", "sync_all", "co_sum_team")
# name -> (unit, source). "host": median over untraced processes; "virt":
# exact, from the untraced process; "traced": exact, from the traced one.
PER_LAYER = {
    "sim.events": ("count", "virt"),
    "sim.switches": ("count", "virt"),
    "sim.host_ns_per_event": ("ns", "host"),
    "sim.event_slab_allocs": ("count", "virt"),
    "sim.stack_bytes_peak": ("B", "virt"),
    "sim.stack_bytes_mapped": ("B", "virt"),
    "proc.sys_s.setup": ("s", "host"),
    "proc.sys_s.run": ("s", "host"),
    "proc.minflt.setup": ("count", "host"),
    "proc.minflt.run": ("count", "host"),
    "host.setup_s": ("s", "host"),
    "host.run_s": ("s", "host"),
    "host.verify_s": ("s", "host"),
    "host.teardown_s": ("s", "host"),
    "host.ref_s": ("s", "host"),
}
for _c in CALLS:
    for _q in ("p50", "p99"):
        PER_LAYER[f"caf.{_c}.virt_us.{_q}"] = ("us", "traced")
    PER_LAYER[f"caf.{_c}.virt_us.count"] = ("count", "traced")
PER_LAYER.update({
    "caf.co_sum_team.stat_failed_image": ("count", "virt"),
    "rma.quiet_calls": ("count", "virt"),
    "rma.quiet_elided_frac": ("frac", "virt"),
    "rpc.sent": ("count", "virt"),
    "rpc.replies": ("count", "virt"),
    "rpc.parked_drains": ("count", "virt"),
    "fd.suspects": ("count", "virt"),
    "fd.declared": ("count", "virt"),
    "fd.false_positives": ("count", "virt"),
    "fd.detect_latency_ns_total": ("ns", "virt"),
    "coll.tree_fallback": ("count", "virt"),
    "net.judged": ("count", "virt"),
    "net.partition_drops": ("count", "virt"),
    "attr.compute": ("frac", "traced"),
    "attr.wire": ("frac", "traced"),
    "attr.quiet": ("frac", "traced"),
    "attr.lock": ("frac", "traced"),
    "attr.sync": ("frac", "traced"),
    "attr.coll": ("frac", "traced"),
    "attr.coverage": ("frac", "traced"),
    "trace.overhead_frac": ("frac", "overhead"),
})
MIN_COVERAGE = 0.95


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no repository sources at "
                         f"{os.path.join(ROOT, 'src')}; run from a full checkout")
    bdir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench_harness",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(bdir, "perfbench_harness")


def run_child(exe, workload, seed, traced, spans):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if traced:
        cmd += ["--spans", spans]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=CHILD_TIMEOUT_S)
    if p.returncode != 0:
        raise RuntimeError(f"harness exited {p.returncode}: {p.stderr.strip()}")
    rec = json.loads(p.stdout.strip().splitlines()[-1])
    rec["seed"] = seed
    rec["note"] = p.stderr.strip()
    rec["host.setup_s"] = rec["setup_s"]
    rec["host.run_s"] = rec["host_s"]
    return rec


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SCENARIOS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{args.workload}.txt")
    seeds = [args.seed * 16 + i
             for i in range(1 if args.trace else SCENARIOS[args.workload])]

    t0 = time.monotonic()
    plain, traced = [], []
    want = max(len(seeds), MIN_REPS) * (2 if args.trace else 1)
    while True:
        elapsed = time.monotonic() - t0
        reps = len(plain) + len(traced)
        if reps >= want and elapsed >= args.seconds:
            break
        if reps >= want and elapsed * (reps + 1.5) / reps > RUN_BUDGET_S:
            break
        use_trace = bool(args.trace) and len(traced) < len(plain)
        seed = seeds[len(plain) % len(seeds)]
        rec = run_child(exe, args.workload, seed, use_trace, spans)
        (traced if use_trace else plain).append(rec)

    violations = []
    for rec in plain + traced:
        violations += [f"seed {rec['seed']}: {v}" for v in rec["violations"]]
    first = {}  # scenario seed -> its first untraced record
    for rec in plain + traced:
        ref = first.setdefault(rec["seed"], rec)
        for key in ("virt_digest", "attempted", "failed"):
            if rec[key] != ref[key]:
                violations.append(f"seed {rec['seed']}: {key} differs between "
                                  f"repetitions ({ref[key]} vs {rec[key]})")
    scen = [first[s] for s in seeds]

    def host_median(name, recs=plain):
        return statistics.median(r[name] for r in recs)

    def speed_median(name):
        return statistics.median(r[name] * REF_NOMINAL_S / r["host.ref_s"]
                                 for r in plain)

    metrics = {}
    if args.trace:
        tr = traced[0]
        if tr["attr.coverage"] < MIN_COVERAGE:
            violations.append(f"analyzer coverage {tr['attr.coverage']:.4f} "
                              f"< {MIN_COVERAGE}")
        for name, (unit, src) in PER_LAYER.items():
            if src == "host":
                v = host_median(name)
            elif src == "virt":
                v = scen[0][name]
            elif src == "traced":
                v = tr[name]
            else:
                v = host_median("host_s", traced) / host_median("host_s") - 1.0
            metrics[name] = {"value": v, "unit": unit}
    else:
        for name, (unit, src) in END_TO_END.items():
            if src == "host":
                v = host_median(name)
            elif src == "speed":
                v = speed_median(name)
            else:
                v = statistics.median(r[name] for r in scen)
            metrics[name] = {"value": v, "unit": unit}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"processes {len(plain)} untraced + {len(traced)} traced  "
          f"in {time.monotonic() - t0:.1f} s")
    for r in scen:
        print(f"scenario {r['seed']}: virt_digest {r['virt_digest']}  "
              f"virt_ms {r['virt_ms']:.6f}  op p50/p99 {r['virt_op_p50_us']:.3f}"
              f"/{r['virt_op_p99_us']:.3f} us over {int(r['virt_op_samples'])} "
              f"ops  sim.events {int(r['sim.events'])}"
              + (f"  [{r['note']}]" if r["note"] else ""))
        extra = {k: v for k, v in r.items()
                 if k not in END_TO_END and k not in PER_LAYER and
                 k not in ("attempted", "failed", "seed") and
                 not k.startswith("virt_op") and isinstance(v, (int, float))}
        print("    " + "  ".join(f"{k} {v:.17g}" for k, v in sorted(extra.items())))
    for name in ("host_s", "setup_s", "host.ref_s"):
        print(f"untraced {name}: " + " ".join(f"{r[name]:.4f}" for r in plain))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.17g} {m['unit']}")
    for v in violations:
        print(f"VIOLATION: {v}")
    correct = not violations
    print(json.dumps({"correct": correct,
                      "attempted": sum(int(r["attempted"]) for r in scen),
                      "failed": sum(int(r["failed"]) for r in scen),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
