#!/usr/bin/env bash
# Tier-1 verification plus sanitizer passes (TSan on the batch engine, ASan
# on fault/cell paths and the JS engine, UBSan on the event engine and the
# JS engine) and throughput gates against scripts/perf_baseline.json.
#
#   scripts/check.sh            # full check
#   JOBS=8 scripts/check.sh     # pin build/test parallelism
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

# Determinism contracts: runs of one bench that differ only in environment
# must print the same stdout and write the same artifacts, byte for byte.
# same_bytes DIR "ARTIFACTS" "BENCH [ARGS]" REF_ENV [ENV ...] keeps the REF_ENV
# run's stdout and artifacts in build/bench/DIR/ref and cmp's each ENV run
# against them; same_as_ref DIR cmp's a run made with run_bench DIR BENCH ENV.
# stderr accumulates in build/bench/DIR/stderr.txt.
run_bench() { (cd build/bench && env $3 $2 > "$1/stdout.txt" 2>> "$1/stderr.txt"); }
same_as_ref() {
  cmp "build/bench/$1/ref/stdout.txt" "build/bench/$1/stdout.txt"
  for artifact in $(cat "build/bench/$1/ref/artifacts"); do
    cmp "build/bench/$1/ref/$artifact" "build/bench/$artifact"
  done
}
same_bytes() {
  local env_vars
  rm -rf "build/bench/$1" && mkdir -p "build/bench/$1/ref"
  run_bench "$1" "$3" "$4"
  echo "$2" > "build/bench/$1/ref/artifacts"
  (cd build/bench && cp "$1/stdout.txt" $2 "$1/ref/")
  for env_vars in "${@:5}"; do
    run_bench "$1" "$3" "$env_vars"
    same_as_ref "$1"
  done
}
cell_artifacts="BENCH_cell.json BENCH_cell.metrics.json"

echo "== tier-1: configure + build + ctest =="
cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== TSan: core_batch_test under -fsanitize=thread =="
cmake -B build-tsan -S . -DEAB_SANITIZE=thread
cmake --build build-tsan -j "$JOBS" --target core_batch_test
# The tests pin their own pools; EAB_JOBS=4 sizes the shared bench runner
# (RunSweep, RunBenchmark) so it is a real pool even on small machines.
EAB_JOBS=4 ./build-tsan/tests/core_batch_test

echo "== ASan: fault-path tests under -fsanitize=address =="
# The fault layer synthesizes partial resources and cancels in-flight
# events/flows; ASan guards the lifetime contracts (retained partial bodies,
# stale-callback drops, cancelled-flow teardown).
# The JS engine's refcounted values, flat call frames and argument stack
# get the same treatment, driven by the differential test's random programs.
# The single-load, session and abort tests build on core::UeStack, whose
# member order decides that a load dies before its client and injectors.
cmake -B build-asan -S . -DEAB_SANITIZE=address
cmake --build build-asan -j "$JOBS" \
  --target net_fault_test --target net_http_test --target web_robustness_test \
  --target web_js_test --target web_js_differential_test \
  --target core_experiment_test --target core_session_test \
  --target core_scenario_test --target chaos_abort_test
./build-asan/tests/net_fault_test
./build-asan/tests/net_http_test
./build-asan/tests/web_robustness_test
./build-asan/tests/web_js_test
./build-asan/tests/web_js_differential_test
./build-asan/tests/core_experiment_test
./build-asan/tests/core_session_test
./build-asan/tests/core_scenario_test
./build-asan/tests/chaos_abort_test

echo "== chaos: seeded sweep + reproducer corpus replay =="
# 256 seed-derived cross-layer fault scenarios (net faults, RIL failures,
# timer drift, mid-load aborts, cache storms, CPU slowdown) audited against
# the invariant oracle; the bench exits non-zero on any violation or hang.
# Then the checked-in minimal reproducers are replayed byte-for-byte.
(cd build/bench && EAB_CHAOS_SEEDS=256 ./bench_ext_chaos > /dev/null)
./build/examples/chaos_replay tests/chaos_corpus/*.json
# A smaller sweep under ASan guards the abort/teardown lifetime contracts
# (cancelled flows, settled-after-abort callbacks, storm-cleared caches).
cmake --build build-asan -j "$JOBS" --target bench_ext_chaos
(cd build-asan/bench && EAB_CHAOS_SEEDS=64 ./bench_ext_chaos > /dev/null)
echo "chaos contract held"

echo "== cell: co-simulation determinism + ASan sweep =="
# The shared-cell co-simulation must be a pure function of its config
# (serial == BatchRunner-pooled sweeps, audited traces) — cell_test covers
# that in-process; run it in the tier-1 build, then the 32-seed chaos sweep
# over cell scenarios again under ASan to guard the per-session teardown
# (client/load replacement, stale abort events, grant release on demotion).
./build/tests/cell_test
cmake --build build-asan -j "$JOBS" --target cell_test
# 16 seeds under ASan: half the in-process sweep, same fault atoms.
EAB_CELL_CHAOS_SEEDS=16 ./build-asan/tests/cell_test \
  --gtest_filter='CellTest.ChaosSweepOverCellScenarios:CellTest.GrantExhaustionDropsSessionsAndStaysClean:CellTest.SameSeedSameResult'
# A small --cell bench run end-to-end: knobs parse, JSON lands, exit 0.
(cd build/bench && EAB_CELL_USERS=8 EAB_CELL_SEED=3 ./bench_fig11_capacity --cell > /dev/null)
echo "cell checks passed"

echo "== radio failure: RLF/outage boundary sweep + null-path bytes =="
# The degraded-radio contract (DESIGN.md "Radio failure model"): coverage
# holes at every RRC state and fetch-settle boundary must tear down cleanly
# (no leaked flows/markers, audited traces) — run under ASan because RLF
# cancels in-flight signalling and settles fetches from a failing state.
cmake --build build-asan -j "$JOBS" \
  --target radio_outage_boundary_test --target radio_rrc_test
./build-asan/tests/radio_outage_boundary_test
./build-asan/tests/radio_rrc_test
# Trimmed cell outage sweep under ASan: serial == pooled == supervised with
# per-UE fades and whole-cell blackouts active.
EAB_CELL_OUTAGE_SEEDS=8 ./build-asan/tests/cell_test \
  --gtest_filter='CellTest.OutageSweepSerialPooledSupervisedBitIdentical'
# Null path: with the outage knobs explicitly set to their disabled values,
# the --cell bench must emit byte-identical stdout and artifacts to a run
# that never mentions them.
radio_env="EAB_CELL_USERS=8 EAB_CELL_SEED=3"
same_bytes radio_null "$cell_artifacts" "./bench_fig11_capacity --cell" \
  "$radio_env" "$radio_env EAB_OUTAGE_COUNT=0 EAB_CELL_OUTAGE_COUNT=0"
# Enabled path end-to-end: the ext_faults outage sweep (both pipelines, three
# re-establishment failure rates) with every load traced and audited.
(cd build/bench && EAB_TRACE=1 EAB_OUTAGE_COUNT=2 EAB_OUTAGE_START=1 \
  EAB_OUTAGE_PERIOD=6 EAB_OUTAGE_DURATION=1.5 ./bench_ext_faults > /dev/null)
echo "radio failure checks passed"

echo "== supervision: crash-recovery soak =="
# The bit-identity contract end-to-end: a supervised --cell sweep whose
# workers AND orchestrator are SIGKILLed at seed-derived points must, after
# relaunching from the checkpoint journal, produce stdout, BENCH_cell.json
# and the metrics snapshot byte-identical to an uninterrupted in-process
# run.  Three chaos seeds drive different kill schedules; the grep at the
# end requires at least 8 injected kills and at least one orchestrator kill
# across the soak.
# Supervised but uninterrupted: forked workers, same bytes.
soak_env="EAB_CELL_USERS=16 EAB_CELL_SEED=5"
same_bytes soak "$cell_artifacts" "./bench_fig11_capacity --cell" \
  "$soak_env" "$soak_env EAB_SUPERVISE=1 EAB_WORKERS=2"

# Chaos: relaunch until the sweep survives its own kill schedule.  Each
# launch is killed mid-run (workers at seed-derived commit points, the
# orchestrator once, right after a durable commit), so convergence itself
# proves the journal resumes; stdout is rewritten per launch, leaving the
# final successful launch's output for the byte-compare.
for chaos_seed in 77 101 202; do
  rm -rf build/bench/soak/ckpt
  mkdir -p build/bench/soak/ckpt
  relaunches=0
  until run_bench soak "./bench_fig11_capacity --cell" \
      "$soak_env EAB_SUPERVISE=1 EAB_WORKERS=2 EAB_CHECKPOINT_DIR=soak/ckpt
       EAB_SELF_CHAOS=$chaos_seed EAB_SELF_CHAOS_KILLS=16 EAB_SELF_CHAOS_ORC=1"
  do
    relaunches=$((relaunches + 1))
    if [ "$relaunches" -gt 20 ]; then
      echo "SOAK FAILED: seed $chaos_seed never converged" >&2
      exit 1
    fi
  done
  echo "chaos seed $chaos_seed: recovered after $relaunches relaunch(es)"
  same_as_ref soak
done
kills=$(grep -c 'supervisor: chaos SIGKILL' build/bench/soak/stderr.txt)
orc_kills=$(grep -c 'supervisor: chaos SIGKILL orchestrator' build/bench/soak/stderr.txt)
echo "soak: $kills chaos kills injected ($orc_kills orchestrator)"
if [ "$kills" -lt 8 ] || [ "$orc_kills" -lt 1 ]; then
  echo "SOAK FAILED: expected >= 8 kills incl >= 1 orchestrator kill" >&2
  exit 1
fi
echo "crash recovery byte-identical under $kills SIGKILLs"

# The supervision layer itself under ASan: fork/pipe lifecycle, journal
# recovery buffers, torn-tail truncation.
cmake --build build-asan -j "$JOBS" \
  --target core_supervisor_test --target core_checkpoint_test
./build-asan/tests/core_supervisor_test
./build-asan/tests/core_checkpoint_test

echo "== metro: multi-cell mobility determinism + ASan sweep =="
# Tier-1 metro suites in the regular build: the full metro contract
# (1-cell ≡ run_cell bytes, execution-tier invariance, ledger conservation,
# audited mobility traces) plus the forced-handover boundary matrix.
./build/tests/metro_test
./build/tests/metro_handover_boundary_test
# 16 mobility seeds under ASan: a handover pauses flows mid-fetch and
# re-routes them through another scheduler, a refused admission aborts the
# load from inside the move — ASan guards those cross-cell lifetimes.
cmake --build build-asan -j "$JOBS" \
  --target metro_test --target metro_handover_boundary_test
EAB_METRO_SWEEP_SEEDS=16 ./build-asan/tests/metro_test \
  --gtest_filter='MetroTest.MobilitySeedSweepStaysClean:MetroTest.MobilityLedgerConserves'
./build-asan/tests/metro_handover_boundary_test
# Disabled-mobility gate: a 1-cell, zero-dwell metro must reproduce plain
# cell::run_cell byte for byte (telemetry and outages included).
./build/tests/metro_test \
  --gtest_filter='MetroTest.OneCellZeroMobilityIsByteIdenticalToRunCell:MetroTest.OneCellTelemetryAndOutagesStillMatchRunCell'
# End-to-end acceptance: stdout and BENCH_metro.json byte-identical across
# the default pool, a one-worker pool and supervised runs of the same sweep.
metro_env="EAB_METRO_GRID_W=2 EAB_METRO_GRID_H=2 EAB_METRO_USERS=6 EAB_METRO_HORIZON=120"
same_bytes metro_check "BENCH_metro.json" ./bench_metro "$metro_env" \
  "$metro_env EAB_JOBS=1" "$metro_env EAB_SUPERVISE=1 EAB_WORKERS=2"
echo "metro sweep byte-identical across pool sizes and supervision"

echo "== telemetry: determinism suite + overhead gate + cross-mode bytes =="
# The telemetry ladder (DESIGN.md §11): integer-quanta merge associativity,
# codec corruption rejection, and the sampling-never-bends-the-workload
# contract — run under ASan because series ship across process boundaries
# through hand-rolled codecs.
cmake --build build-asan -j "$JOBS" --target obs_telemetry_test
./build-asan/tests/obs_telemetry_test
# bench_obs_overhead's sampling phase: cell workload bit-identical with
# telemetry on, wall-clock overhead within the 5% budget.  The bench
# enforces both internally (nonzero exit), and the grep makes the JSON
# fields load-bearing too.
(cd build/bench && ./bench_obs_overhead > /dev/null)
grep -q '"sampling_within_budget": true' build/bench/BENCH_obs_overhead.json
grep -q '"cell_workload_identical": true' build/bench/BENCH_obs_overhead.json
# End-to-end acceptance: stdout, BENCH_cell.timeseries.json and the other
# cell artifacts byte-identical across the default pool, a one-worker pool
# and supervised runs of the same sweep.
ts_env="EAB_CELL_USERS=16 EAB_CELL_SEED=5 EAB_TELEMETRY=1"
same_bytes telemetry "$cell_artifacts BENCH_cell.timeseries.json" \
  "./bench_fig11_capacity --cell" "$ts_env" "$ts_env EAB_JOBS=1" \
  "$ts_env EAB_SUPERVISE=1 EAB_WORKERS=2"
echo "telemetry series byte-identical across pool sizes and supervision"

echo "== UBSan: event-engine and JS-engine tests under -fsanitize=undefined =="
# The pooled event engine type-erases callables into recycled slot storage
# (placement new, raw vtable calls, power-of-two size-class blocks); UBSan
# guards the alignment/lifetime contracts, driven hardest by the
# differential test's random op soup.  The JS engine
# casts script numbers to indices; this build adds float-cast-overflow, so a
# NaN, negative or huge index that reached a cast would fail here.
cmake -B build-ubsan -S . -DEAB_SANITIZE=undefined
cmake --build build-ubsan -j "$JOBS" \
  --target sim_simulator_test --target sim_differential_test \
  --target web_js_test --target web_js_differential_test
./build-ubsan/tests/sim_simulator_test
./build-ubsan/tests/sim_differential_test
./build-ubsan/tests/web_js_test
./build-ubsan/tests/web_js_differential_test

echo "== perf gate: simulator throughput vs checked-in baseline =="
# bench_throughput's serial events/s must stay within a generous margin of
# scripts/perf_baseline.json (40% floor: catches an accidental O(n) in the
# hot path, ignores machine-to-machine noise).  Refresh the baseline with
# scripts/check.sh's printed value when the engine is deliberately retuned.
(cd build/bench && ./bench_throughput > /dev/null)
actual=$(grep -o '"serial_events_per_sec": [0-9.]*' build/bench/BENCH_throughput.json | awk '{print $2}')
baseline=$(grep -o '"serial_events_per_sec": [0-9.]*' scripts/perf_baseline.json | awk '{print $2}')
floor=$(awk -v b="$baseline" 'BEGIN { printf "%.1f", b * 0.4 }')
echo "serial events/s: actual=$actual baseline=$baseline floor=$floor"
awk -v a="$actual" -v f="$floor" 'BEGIN { exit !(a >= f) }' || {
  echo "PERF REGRESSION: serial_events_per_sec $actual < floor $floor" >&2
  exit 1
}

echo "== perf gate: JS interpreter ops/s and op-count checksum =="
# bench_js_micro runs every corpus script through the interpreter alone
# (best of 5 passes).  Its ops total is deterministic and drives simulated
# JS time, so it must equal the recorded checksum exactly; ops/s must stay
# above 40% of the recorded baseline, like the gate above.
(cd build/bench && ./bench_js_micro > /dev/null)
js_json=build/bench/BENCH_js_micro.json
js_actual=$(grep -o '"js_ops_per_sec": [0-9.]*' "$js_json" | awk '{print $2}')
js_baseline=$(grep -o '"js_ops_per_sec": [0-9.]*' scripts/perf_baseline.json | awk '{print $2}')
js_floor=$(awk -v b="$js_baseline" 'BEGIN { printf "%.1f", b * 0.4 }')
js_ops=$(grep -o '"ops_checksum": [0-9]*' "$js_json" | awk '{print $2}')
js_ops_want=$(grep -o '"js_ops_checksum": [0-9]*' scripts/perf_baseline.json | awk '{print $2}')
echo "js ops/s: actual=$js_actual baseline=$js_baseline floor=$js_floor; ops=$js_ops (want $js_ops_want)"
if [ "$js_ops" != "$js_ops_want" ]; then
  echo "OP COUNT DRIFT: bench_js_micro ran $js_ops ops, expected $js_ops_want" >&2
  exit 1
fi
awk -v a="$js_actual" -v f="$js_floor" 'BEGIN { exit !(a >= f) }' || {
  echo "PERF REGRESSION: js_ops_per_sec $js_actual < floor $js_floor" >&2
  exit 1
}

echo "== trace audit: benches under EAB_TRACE=1 =="
# Every load/session records a structured trace and the TraceAuditor replays
# it (RRC legality, timer discipline, transfer markers, retry budget, energy
# reconciliation).  The benches exit non-zero on any violation or epsilon
# breach, which fails this script.
(cd build/bench && EAB_TRACE=1 ./bench_fig10_energy > /dev/null)
(cd build/bench && EAB_TRACE=1 ./bench_fig16_policies > /dev/null)
(cd build/bench && EAB_TRACE=1 ./bench_ext_faults > /dev/null)
echo "trace audits passed"

echo "== all checks passed =="
