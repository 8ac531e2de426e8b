#!/usr/bin/env bash
# CI entry point: build Release and Sanitize trees and run the full suite
# in both — under ASan/UBSan too, since the failure-recovery protocols
# exercise quarantined qnode reuse, fiber unwinding through kills, and
# repair-time remote reads, which is exactly the code sanitizers are good
# at catching.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
GENERATOR=()
command -v ninja >/dev/null 2>&1 && GENERATOR=(-G Ninja)

echo "=== Release build + full test suite ==="
cmake -B build-release -S . "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=Release \
  -DCAFSHMEM_WERROR=ON
cmake --build build-release -j "$JOBS"
ctest --test-dir build-release --output-on-failure -j "$JOBS"

echo "=== Sanitize build (ASan/UBSan) + full test suite ==="
# Under ASan the fiber layer falls back to the instrumented swapcontext
# path, so the engine-scale `sim` tests (16k lazily-stacked fibers, pool
# recycling, kill-during-lazy-stack) also check both context
# implementations stay in lockstep.
cmake -B build-sanitize -S . "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=Sanitize \
  -DCAFSHMEM_WERROR=ON
cmake --build build-sanitize -j "$JOBS"
ASAN_OPTIONS=${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1} \
UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1} \
  ctest --test-dir build-sanitize --output-on-failure -j "$JOBS"

ART=build-release/artifacts
mkdir -p "$ART"

echo "=== Paper figures + fault harnesses: stdout byte-identical to the baselines ==="
# The figure and fault harnesses print only virtual-time results, so their
# stdout is the same on every run and every host. Any moved number fails the
# diff; a deliberate change re-blesses bench/baselines/<name>.txt with its
# reason. fault_recovery runs the robust-lock reclaim and the mid-run-kill
# DHT; fault_sweep the bandwidth-under-loss series.
for fig in fig2:fig2_put_latency fig3:fig3_put_bandwidth fig6:fig6_xc30_caf \
           fig7:fig7_stampede_caf fig8:fig8_locks fig9:fig9_dht \
           fig10:fig10_himeno fault_sweep:fault_sweep \
           fault_recovery:fault_recovery; do
  out="$ART/${fig%%:*}.txt"
  "./build-release/bench/${fig#*:}" > "$out"
  diff -u "bench/baselines/${fig%%:*}.txt" "$out"
done
echo "harness stdout ok: fig2/3/6/7/8/9/10, fault_sweep, fault_recovery match bench/baselines"

echo "=== Bench smoke: RMA pipeline ==="
# Exercise the pipeline ablation and publish its series as a CI artifact.
# The DES clock makes the numbers deterministic, so the JSON doubles as a
# regression record; fresh output lands in build-release/artifacts and is
# diffed against the checked-in bench/baselines/BENCH_*.json by
# bench_diff.py.
./build-release/bench/ablate_agg --json "$ART/BENCH_rma.json"
python3 - <<EOF
import json
with open("$ART/BENCH_rma.json") as f:
    data = json.load(f)
ratio = data["agg_vs_blocking_geomean"]
assert ratio >= 2.0, f"aggregation speedup regressed: {ratio:.2f}x < 2x"
print(f"bench smoke ok: aggregated/blocking geomean = {ratio:.2f}x")
EOF

# Collectives-engine ablation: the adaptive arm must keep beating the
# pre-engine baseline (binomial + full-quiet completion) at scale.
./build-release/bench/ablate_coll --json "$ART/BENCH_coll.json"
python3 - <<EOF
import json
with open("$ART/BENCH_coll.json") as f:
    data = json.load(f)
ar = data["allreduce8_speedup_64"]
bc = data["bcast_1m_speedup_64"]
assert ar >= 2.0, f"small-allreduce speedup regressed: {ar:.2f}x < 2x"
assert bc >= 1.5, f"1MiB-broadcast speedup regressed: {bc:.2f}x < 1.5x"
print(f"bench smoke ok: allreduce-8B @64 = {ar:.2f}x, bcast-1MiB @64 = {bc:.2f}x")
EOF

echo "=== Intranode-transport smoke: node-local vs fabric ablation ==="
# Node-local shared-segment transport: same-node RMA, collectives, and lock
# traffic over the per-node shared symmetric heap + SPSC rings instead of
# NIC loopback. The acceptance gate: a one-node 8-byte allreduce must stay
# >= 2x faster than the fabric path on both machine profiles.
./build-release/bench/ablate_intranode --json "$ART/BENCH_intranode.json"
python3 - <<EOF
import json
with open("$ART/BENCH_intranode.json") as f:
    data = json.load(f)
ar = data["allreduce8_speedup_min"]
lk = data["lock_handoff_speedup_min"]
hg = data["hot_get_p99_speedup_min"]
assert ar >= 2.0, f"node-local 8B-allreduce speedup regressed: {ar:.2f}x < 2x"
assert lk >= 1.5, f"lock-handoff speedup regressed: {lk:.2f}x < 1.5x"
assert hg >= 1.5, f"hot-shard get p99 speedup regressed: {hg:.2f}x < 1.5x"
print(f"intranode smoke ok: allreduce-8B {ar:.2f}x, lock handoff {lk:.2f}x, "
      f"hot-get p99 {hg:.2f}x")
EOF

echo "=== Chaos-soak smoke: grey-failure invariants ==="
# Bounded leg of the randomized grey-failure soak (8 seeded scripts, each
# run twice for the determinism invariant). The full 24-script soak is the
# `soak` ctest configuration: ctest --test-dir build-release -C soak.
# A nonzero exit means an invariant (hang, false positive, missed
# detection, nondeterminism, memory divergence) was violated.
./build-release/bench/chaos_soak --smoke --json "$ART/BENCH_chaos.json"
python3 - <<EOF
import json
with open("$ART/BENCH_chaos.json") as f:
    data = json.load(f)
assert data["false_positives"] == 0, "grey-failure soak declared a live PE"
lat = data["detect_latency_avg_ns"]
assert 0 < lat < 2_000_000, f"detection latency implausible: {lat}ns"
print(f"chaos smoke ok: fp=0, mean detection latency = {lat/1000:.0f}us")
EOF

echo "=== Replicated-DHT serving smoke: kill the hot primary ==="
# Open-loop Zipf get/put streams with a scripted mid-run kill of the hot
# shard's primary on both machine profiles. The harness is self-checking
# (nonzero exit on any violation); the assertions below restate the
# availability contract so a regression names the broken invariant.
./build-release/bench/dht_serve --smoke --json "$ART/BENCH_dht_serve.json"
python3 - <<EOF
import json
with open("$ART/BENCH_dht_serve.json") as f:
    data = json.load(f)
for row in data["machines"]:
    m = row["machine"]
    assert row["lost_acked"] == 0, f"{m}: acknowledged writes were lost"
    assert row["determinism_mismatch"] == 0, f"{m}: rerun diverged"
    assert row["under_replicated_final"] == 0, \
        f"{m}: anti-entropy left replication debt"
    assert row["recovery_p99_ns"] <= 400_000, \
        f"{m}: p99 recovery {row['recovery_p99_ns']}ns exceeds budget"
    assert row["promotions"] >= 1, f"{m}: kill never promoted a replica"
    print(f"dht_serve smoke ok [{m}]: lost=0, recovery "
          f"{row['recovery_p99_ns']/1000:.0f}us, put p99 "
          f"{row['put_p99_ns']/1000:.1f}us")
EOF

echo "=== RPC smoke: asynchronous remote execution ablation ==="
# Future/promise + RPC layer (DESIGN.md §4f): cross-node round-trip and
# fire-and-forget cost on both mailbox platforms and the GASNet AM
# transport, plus the DHT-insert head-to-head against a pure-AMO design.
# Shape gates: pipelined ff must beat a full round trip everywhere, and
# the AM transport must hold the best round-trip latency (implicit
# handler progress vs parked-drain polling).
./build-release/bench/ablate_rpc --json "$ART/BENCH_rpc.json"
python3 - <<EOF
import json
with open("$ART/BENCH_rpc.json") as f:
    data = json.load(f)
rtts = {}
for row in data["platforms"]:
    p = row["platform"]
    assert 0 < row["ff_ns_per_op"] < row["rtt_8b_ns"], \
        f"{p}: fire-and-forget does not pipeline"
    rtts[row["transport"]] = min(rtts.get(row["transport"], 1 << 62),
                                 row["rtt_8b_ns"])
assert rtts["am"] < rtts["mailbox"], "AM transport lost its latency edge"
for row in data["dht_insert"]:
    assert row["rpc_ns_per_update"] > 0 and row["amo_ns_per_update"] > 0
print(f"rpc smoke ok: best rtt am={rtts['am']}ns mailbox={rtts['mailbox']}ns")
EOF

echo "=== Bench diff vs checked-in baselines (any worsening = fail) ==="
# The diff gate checks itself first: a broken bench_diff.py would wave
# regressions through silently. These diffs and the traced fig9 leg run
# before the engine smoke, so an abort there cannot hide them. The six
# records below are virtual-time DES output, identical on every run and
# every host, so they gate at --tolerance 0 (a baseline's own
# "tolerances" block still overrides per metric).
python3 scripts/bench_diff.py --selftest
for rec in rma coll intranode chaos dht_serve rpc; do
  python3 scripts/bench_diff.py --tolerance 0 \
    "bench/baselines/BENCH_$rec.json" "$ART/BENCH_$rec.json"
done

echo "=== Observability smoke: traced fig9_dht ==="
# One traced DHT run at 8 images; the Chrome trace must be valid JSON and
# is kept as a CI artifact next to the bench records.
CAF_TRACE="$ART/fig9_dht_trace.json" ./build-release/bench/fig9_dht --smoke 8
python3 -m json.tool "$ART/fig9_dht_trace.json" > /dev/null
echo "trace artifact ok: $ART/fig9_dht_trace.json"

echo "=== Repository benchmark smoke: all four perfbench workloads ==="
# perfbench/ is its own CMake tree (BENCHMARK.json's command), which the
# suites above never build. One short failover run builds it from src/ and
# runs its output checks: run.py exits non-zero when a check fails. The
# himeno leg checks every image's gosa per iteration at 2048 images, so a
# broken halo pack or section walk fails here too. The two DHT legs check
# their final tables at 1024 images: dht_locks over the conduit's
# outstanding-put tracker, dht_rpc over the RPC engine's sender rows.
for w in failover himeno dht_locks dht_rpc; do
  python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0
done

echo "=== Engine-core smoke: event/fiber throughput + 16k-image gates ==="
# Host-side engine health: queue events/sec, fiber switches/sec, zero
# steady-state heap slabs (exact-match gate), and the two at-scale smokes
# (16k-image barrier storm and Himeno). Simulated event counts and MFLOPS
# in the JSON double as byte-identity checks; wall times get a loose
# tolerance below because they are host measurements, not DES output.
./build-release/bench/engine_micro --json "$ART/BENCH_engine.json"
python3 scripts/bench_diff.py --tolerance 0.5 \
  bench/baselines/BENCH_engine.json "$ART/BENCH_engine.json"

echo "=== CI passed ==="
