#!/usr/bin/env bash
# The full pre-merge gauntlet, in the order a failure is cheapest to find:
#   1. tier-1: default configure + build + the whole ctest suite
#   2. hotpath: the zero-allocation gates (per point, and per small event
#      through a running server) and the legacy-vs-kernel speedup gate
#      (label `hotpath`, runs in the tier-1 build tree)
#   2b. chaos: crash-kill sweep over snapshot writes, corruption corpus,
#      and hot-swap-under-traffic recovery gates (label `chaos`)
#   2c. obs: tracing-layer gates — span well-formedness, trace-replay
#      determinism, golden chrome trace, overhead/alloc bench (label `obs`)
#   2d. soak: the fault-injected overload soak (label `soak`) — wire-format
#      round trip, adaptive admission under 2x overload, deadline budgets,
#      retry accounting, corrupt/truncated frame rejection
#   3. asan / ubsan: full suite under AddressSanitizer and UBSan (includes
#      the snapshot + event-wire fuzz/corruption tests in io_tests)
#   2f. touch: multi-contact robustness gates — contact lifecycle repair,
#      touch-attribute classification, front-end routing, touch-noise soak
#      smoke (label `touch`)
#   2g. lexicon: large-lexicon n-best gates — lexicon generation, n-best
#      invariants, selection determinism, serve n-best wiring, scaling
#      bench smoke (label `lexicon`)
#   4. tsan: the threaded serve, tracing, personalization, touch, and
#      lexicon layers (labels `serve`, `obs`, `personalize`, `touch`,
#      `lexicon`; the serve
#      label includes the admission/deadline/retry and
#      concurrent-metrics-snapshot tests alongside hot-swap, and the
#      running server's allocation gate) under ThreadSanitizer
#   5. notrace: GRANDMA_TRACING=OFF build — proves the instrumented tree
#      still compiles with tracing compiled out, and the obs tests (which
#      then assert that zero spans are ever recorded) still pass
#   6. nosimd: GRANDMA_SIMD=OFF build — the scalar-only fallback must pass
#      the FULL tier-1 suite, and the hotpath bench gates run on both the
#      SIMD and scalar-only builds (the scalar build records
#      "speedup_gate": "skipped_no_simd")
#   7. artifacts: the full-size hotpath results from step 6b are copied to
#      the repo root so the perf trajectory is trackable across PRs (the
#      nosimd one lands as BENCH_hotpath_nosimd.json); the other BENCH_*.json
#      in build/bench come from reduced-size ctest smokes and are left there
# Usage: ci/check.sh [jobs]   (defaults to nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

run() {
  echo
  echo "=== $* ==="
  "$@"
}

# 1. Tier-1 verify.
run cmake --preset default
run cmake --build --preset default -j "$JOBS"
run ctest --preset default

# 2. Hot-path allocation + speedup gates (already built by tier-1).
run ctest --preset default -L hotpath

# 2b. Crash-safety chaos gate: strided crash-kill sweep over snapshot
#     writes + corruption corpus + hot-swap-under-traffic (label `chaos`,
#     runs in the tier-1 build tree).
run ctest --preset default -L chaos

# 2c. Tracing-layer gate: property/replay/golden tests plus the overhead,
#     zero-allocation, and replay-determinism bench (label `obs`, runs in
#     the tier-1 build tree).
run ctest --preset default -L obs

# 2d. Overload-resilience soak gate: bench_smoke_overload replays a reduced
#     wire-format load through the adaptive-admission server with fault
#     injection and checks every hard gate (label `soak`, runs in the tier-1
#     build tree).
run ctest --preset default -L soak

# 2e. Personalization gate: user-delta math/snapshot/cache/serve-wiring unit
#     tests plus the churn bench smoke (adapted-vs-base accuracy, balanced
#     eviction/rehydration accounting, zero concurrent divergences) — label
#     `personalize`, runs in the tier-1 build tree. The same label rides the
#     tsan preset below.
run ctest --preset default -L personalize

# 2f. Multi-contact robustness gate: contact-tracker lifecycle repair,
#     touch-attribute classification, and TouchFrontEnd routing unit tests
#     plus the touch-noise soak smoke (zero throws under contact-level
#     faults, balanced contact accounting, zero untainted divergences,
#     bit-identical attribute streams) — label `touch`, runs in the tier-1
#     build tree. The same label rides the tsan preset below.
run ctest --preset default -L touch

# 2g. Large-lexicon gate: extensive-lexicon generation, n-best ranking
#     invariants (cross-tier identity at 200 classes), lexicon-selection
#     determinism/collision handling, the serve n-best wiring, and the
#     lexicon-scale bench smoke (accuracy/latency rows at 11/50/200 classes,
#     selection-vs-prefix comparison, n-best zero-allocation gate) — label
#     `lexicon`, runs in the tier-1 build tree. The same label rides the
#     tsan preset below.
run ctest --preset default -L lexicon

# 3. Memory-error and UB gates, full suite.
for san in asan ubsan; do
  run cmake --preset "$san"
  run cmake --build --preset "$san" -j "$JOBS"
  run ctest --preset "$san"
done

# 4. Data-race gate on the concurrent serve layer and the per-thread
#    tracing buffers (single-writer rings + stage histograms).
run cmake --preset tsan
run cmake --build --preset tsan -j "$JOBS"
run ctest --preset tsan

# 5. Compile-out gate: the whole tree must build with GRANDMA_TRACING=OFF
#    (TRACE_SPAN expands to a no-op) and the obs tests must still pass —
#    in that config they assert that no span is ever recorded.
run cmake --preset notrace
run cmake --build --preset notrace -j "$JOBS"
run ctest --preset notrace

# 6. Scalar-fallback gate: GRANDMA_SIMD=OFF compiles only the scalar kernel
#    tier; the FULL tier-1 suite (equivalence tests included — they then see
#    a single supported tier) must pass, proving no code path silently
#    requires vector hardware.
run cmake --preset nosimd
run cmake --build --preset nosimd -j "$JOBS"
run ctest --preset nosimd

# 6b. Hotpath bench gates on both kernel builds, full reps. The default
#     build enforces the batched-SIMD speedup gate (on vector-capable
#     hardware); the nosimd build records "skipped_no_simd" and still
#     enforces the allocation and legacy-speedup gates. Each writes
#     BENCH_hotpath.json into its own bench dir; the tier is recorded in
#     the JSON ("simd_tier") so regressions are attributable.
run env -C build/bench ./hotpath_per_point
run env -C build-nosimd/bench ./hotpath_per_point

# 7. Artifact collection: surface the benchmark JSONs this script
#    regenerates at full size — the hotpath pair from step 6b — at the repo
#    root so the numbers ride along with the PR. The nosimd result is renamed
#    to keep both kernel configurations side by side. The ctest smokes also
#    write BENCH_*.json into build/bench, but from shortened runs (the touch
#    soak on 84 groups instead of 168, the lexicon bench at --reps=5 instead
#    of 60); copying them would overwrite the committed full-run artifacts
#    with smoke numbers.
echo
echo "=== collecting BENCH_*.json artifacts ==="
cp -v build/bench/BENCH_hotpath.json .
cp -v build-nosimd/bench/BENCH_hotpath.json BENCH_hotpath_nosimd.json

echo
echo "ci/check.sh: all gates passed"
