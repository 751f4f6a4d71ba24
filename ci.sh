#!/usr/bin/env bash
# CI entry point: build and test the normal and sanitized configurations.
#
#   ./ci.sh            all configs, full test suite under each
#   ./ci.sh <label>    only the suites carrying that CTest label, e.g.
#                      fault, perf, perf-wallclock, obs, sched, pipeline,
#                      scale, convergence, threaded; a label no suite
#                      carries fails the run instead of running nothing
#
# The sanitized config (-DCOMPSO_SANITIZE=ON) runs everything under
# AddressSanitizer + UBSan, which is what gives the fault/recovery paths
# their teeth: an out-of-bounds decode of a corrupted payload or a damaged
# checkpoint frame (test_ckpt_fuzz mutates every checkpoint section ≥1000
# times) fails the build's tests even if it happens not to crash.
#
# The fault lane (ctest -L fault) runs in all three configs and covers the
# recovery policies (test_fault), checkpoint round-trips (test_checkpoint),
# the membership/liveness ladder + rejoin re-sync (test_membership), the
# 200-step fault-storm bit-determinism soak (test_fault_storm), the
# checkpoint fuzz contract (test_ckpt_fuzz), and the end-to-end drill
# (example_fault_drill, which exits nonzero unless the crashed rank
# rejoins and the resumed run is bit-exact).
#
# The TSan config (-DCOMPSO_TSAN=ON) runs everything under
# ThreadSanitizer — that is what keeps the thread pool honest: the
# StepGraph compute tasks DistSgd/DistKfac submit to it, the
# parallel_for_static fan-outs (rank forward/backward, decodes) AND the
# blocked math engine's row-block path (test_math, test_engine,
# bench_math_smoke, bench_train_smoke). ASan and TSan cannot share a
# binary, hence the separate build directory.
#
# The obs lane (ctest -L obs) runs in all three configs: the normal
# config checks byte-identical trace/metrics exports across thread
# counts and save/resume, the ASan+UBSan config keeps the JSON exporter
# clean under the adversarial span-name fuzz, and the TSan config
# validates the metrics registry's sharded cross-thread accumulation.
# The bench_obs_smoke gate (micro_train_throughput --smoke --trace)
# additionally schema-validates the emitted trace.json and enforces the
# metrics-on vs metrics-off overhead budget.
#
# The sched lane (ctest -L sched) also runs in all three configs: the
# normal config checks the scheduler's deterministic order, bit-exact
# trajectories at any engine thread count (clean, fault-injected, and
# across checkpoint resume) and the trace-derived overlap/idle-gap gate;
# the ASan+UBSan and TSan configs keep the graph's submit/reap lifetime
# and cross-thread task handoff honest.
#
# The pipeline lane (ctest -L pipeline) also runs in all three configs
# (DESIGN.md §15): test_pipeline covers chunk-frame/cursor round trips
# and validation, the >= 1000-mutation-per-category chunk fuzz (header,
# CRC, mid-chunk truncation, duplicate — whose OOB teeth come from the
# ASan+UBSan config), the chunk-scoped fault plan, the per-round chunk
# collective, and the bit-exact trajectory gates across chunk sizes
# (clean, chunk and whole-payload faults + retries, and across
# checkpoint resume; the TSan config drives the decode fan-outs on the
# pool). The bench_pipeline_smoke gate (ablation_overlap --smoke)
# enforces chunked >= 1.3x unchunked at Slingshot-10 plus byte-identity
# and transport/model agreement.
#
# The scale lane (ctest -L scale) also runs in all three configs
# (DESIGN.md §16): test_scale covers the Topology rank-map properties,
# the summing collectives' byte-identity against the flat canonical
# reduction with algorithm selection off and on (adversarial world sizes,
# masked participation), the selection/time-model invariants (legacy
# formulas bit-for-bit with selection off; hierarchical beats the flat
# ring at >= 256 ranks), and
# the sharded preconditioning contract: sharded-vs-KAISA bit-identity at
# any engine thread count (TSan keeps the owner-grouped pool tasks
# honest), deterministic owner reassignment on eviction, and bit-exact
# checkpoint resume between a reassignment and the next eigh refresh.
# The bench_scale_smoke gate (scale_sweep --smoke) re-proves the
# bit-identity and memory gates end to end and emits BENCH_scale.json —
# every gate is deterministic, so it holds under both sanitizers.
#
# The convergence lane (ctest -L convergence) also runs in all three
# configs (DESIGN.md §17): test_error_feedback covers the EF wrapper's
# residual properties (plateau bound, EF-over-identity == identity SGD
# bit-for-bit), the rollback-on-fallback / reset-on-rejoin lifecycle, the
# versioned EF CKPT section's typed validation (ASan+UBSan gives the
# damage paths their teeth), and the trainer determinism matrix for the
# EF families (engine threads x corrupt/drop/NaN faults x resume);
# test_sketch covers the sketch estimators' unbiasedness/variance over
# >= 1000 seeded draws, counter-derived seed-stream determinism (TSan
# keeps the concurrent per-stream counters honest), and payload/state
# damage rejection. The bench_convergence_smoke gate fails unless
# EF-over-top-k beats plain top-k at equal compression budget and every
# family's curve is finite. The fig06_convergence and table1_squad runs
# train every Fig. 6 and Table 1 row through core::train, including the
# span task with compressors and table1's per-stage provider.
#
# The full default pass includes the two bench smoke gates
# (bench/micro_math_throughput --smoke, bench/micro_train_throughput
# --smoke): they enforce the blocked >= 4x naive gemm criterion at 512^3
# (uninstrumented configs) and serial == parallel bit-identity, and leave
# BENCH_math.json / BENCH_train.json in each build directory.
#
# A no-label run also builds test_math with -DCOMPSO_NATIVE=ON and runs
# the eigh and gemm-engine bit pins (Eigh.BitsArePinned,
# BlockedGemm.BitsArePinned) from that build: -march=native turns on
# FMA, and the pins fail if any multiply-add in eigen.cpp or
# matrix_ops.cpp gets fused.
#
# A no-label run also builds the end-to-end benchmark (trainbench/, its
# own CMake package over the same src/ libraries) out of tree in
# build-trainbench/ (Release), runs its unit tests, and runs each workload
# for one second with --trace 0 and --trace 1. The step fails unless every
# run exits 0 and its last line reports "correct": true — so a src/ change
# that breaks trainbench's build or its correctness checks fails here.
#
# A last, build-only step compiles everything in Release with
# -DCOMPSO_WERROR=ON: GCC warns on some code only at -O3 (a false
# -Wrestrict on string concatenation, for one), which the RelWithDebInfo
# configs above never see. It runs only when no label is given.
#
# The perf-wallclock lane (./ci.sh perf-wallclock) runs only the three
# gates whose pass depends on a wall-clock ratio: bench_math_smoke (gemm
# speedup), bench_train_smoke (4-thread parallel speedup) and
# bench_obs_smoke (metrics-on overhead). They stay in the default pass
# too, with the same thresholds; the label lets a quiet host re-run them
# on their own when a loaded one fails them.
#
# A failing config does not stop the run: every config, and the -Werror
# build, runs to its end, so one flaky gate cannot hide what the others
# would say. The script then names each failed step and exits non-zero.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"
LABEL="${1:-}"

# Runs under `||`, where `set -e` does not apply: each step returns on
# its own failure.
run_suite() {
  local dir="$1"; shift
  cmake -S . -B "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@" >/dev/null \
    || return 1
  cmake --build "$dir" -j "$JOBS" || return 1
  local filter=()
  if [[ -n "$LABEL" ]]; then filter=(-L "$LABEL" --no-tests=error); fi
  ctest --test-dir "$dir" "${filter[@]}" --output-on-failure -j "$JOBS"
}

failed=()

echo "=== config 1/3: normal ==="
run_suite build-ci || failed+=("config 1/3: normal")

echo "=== config 2/3: AddressSanitizer + UBSan ==="
run_suite build-asan -DCOMPSO_SANITIZE=ON \
  || failed+=("config 2/3: AddressSanitizer + UBSan")

echo "=== config 3/3: ThreadSanitizer ==="
run_suite build-tsan -DCOMPSO_TSAN=ON \
  || failed+=("config 3/3: ThreadSanitizer")

if [[ -z "$LABEL" ]]; then
  # eigh's and the gemm engine's bits must not depend on the build host
  # (DESIGN.md §11.1, §11.4): -march=native enables FMA, so this catches
  # a fused multiply-add that -ffp-contract=off on eigen.cpp and
  # matrix_ops.cpp no longer prevents.
  echo "=== eigh and gemm pins: -DCOMPSO_NATIVE=ON ==="
  { cmake -S . -B build-native -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCOMPSO_NATIVE=ON >/dev/null \
      && cmake --build build-native -j "$JOBS" --target test_math \
      && build-native/tests/test_math \
           --gtest_filter='Eigh.BitsArePinned:BlockedGemm.BitsArePinned'; } \
    || failed+=("eigh and gemm pins: -DCOMPSO_NATIVE=ON")

  echo "=== trainbench: build and smoke-run each workload ==="
  trainbench_smoke() {
    cmake -S trainbench -B build-trainbench -DCMAKE_BUILD_TYPE=Release \
      >/dev/null || return 1
    cmake --build build-trainbench -j "$JOBS" \
      --target trainbench trainbench_tests || return 1
    build-trainbench/trainbench_tests || return 1
    local workload trace last
    for workload in kfac_compso kfac_scaleout; do
      for trace in 0 1; do
        last="$(build-trainbench/trainbench --workload "$workload" \
                  --seed 1 --seconds 1 --trace "$trace" | tail -n 1)" \
          || return 1
        echo "$workload --trace $trace: $last"
        [[ "$last" == '{"correct": true,'* ]] || return 1
      done
    done
  }
  trainbench_smoke || failed+=("trainbench: build and smoke-run")

  echo "=== build only: Release -Werror ==="
  { cmake -S . -B build-werror -DCMAKE_BUILD_TYPE=Release -DCOMPSO_WERROR=ON \
      >/dev/null && cmake --build build-werror -j "$JOBS"; } \
    || failed+=("build only: Release -Werror")
fi

if ((${#failed[@]} > 0)); then
  echo "ci.sh: ${#failed[@]} step(s) failed:"
  printf '  %s\n' "${failed[@]}"
  exit 1
fi
echo "ci.sh: all green"
