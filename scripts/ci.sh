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

echo "=== Bench records: harness self-checks + diff vs checked-in baselines ==="
# Each harness writes its BENCH_*.json into build-release/artifacts and exits
# non-zero when one of its own invariants breaks (chaos_soak: grey-failure
# invariants; dht_serve: the availability contract; ablate_rpc: the RPC
# latency shapes). The full 24-script chaos soak is the `soak` ctest
# configuration: ctest --test-dir build-release -C soak.
./build-release/bench/ablate_agg --json "$ART/BENCH_rma.json"
./build-release/bench/ablate_coll --json "$ART/BENCH_coll.json"
./build-release/bench/ablate_intranode --json "$ART/BENCH_intranode.json"
./build-release/bench/chaos_soak --smoke --json "$ART/BENCH_chaos.json"
./build-release/bench/dht_serve --smoke --json "$ART/BENCH_dht_serve.json"
./build-release/bench/ablate_rpc --json "$ART/BENCH_rpc.json"
# The diff gate checks itself first: a broken bench_diff.py would wave
# regressions through silently. These diffs and the traced fig9 leg run
# before the engine smoke, so an abort there cannot hide them. The records
# are virtual-time DES output, identical on every run and host, so they
# gate at --tolerance 0; a baseline's "tolerances" block overrides per
# metric, and its "bounds" block holds the single-metric floors/ceilings.
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
