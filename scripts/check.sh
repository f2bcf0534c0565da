#!/usr/bin/env bash
# Full verification sweep: the tier-1 suite plus the chaos suite, both under
# AddressSanitizer + UndefinedBehaviorSanitizer, and (with --tsan) the
# multithreaded compute + chaos + storage suites under ThreadSanitizer. A plain
# (unsanitized) run is assumed to happen through the default preset; this
# script is the slower, paranoid gate.
#
#   scripts/check.sh                # ASan/UBSan build + full ctest
#   scripts/check.sh --chaos        # ASan/UBSan build + chaos label only
#   scripts/check.sh --chaos-sweep [N]  # chaos label across N seed offsets
#   scripts/check.sh --tsan         # TSan build + the multithreaded labels
#   scripts/check.sh --stress [N]   # default build; threaded labels under
#                                   # CPU overload, each test repeated N times
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--chaos-sweep" ]]; then
  # Re-run the chaos label under N distinct fault-injector seed ranges
  # (default 10). Each iteration exports TRINITY_CHAOS_SEED_OFFSET=i*1000;
  # every chaos test derives its seeds as base + offset, so each pass runs
  # the same assertions against a disjoint, fully deterministic fault
  # schedule. Offset 0 is the range the default ctest run uses. Every offset
  # runs even after one fails; the failing offsets are listed at the end and
  # make the exit status nonzero.
  SWEEP="${2:-10}"
  cmake --preset sanitize
  cmake --build --preset sanitize -j "$(nproc)"
  cd build-sanitize
  FAILED=()
  for ((i = 0; i < SWEEP; ++i)); do
    echo "=== chaos sweep $((i + 1))/${SWEEP}: TRINITY_CHAOS_SEED_OFFSET=$((i * 1000)) ==="
    if ! ASAN_OPTIONS=detect_leaks=0 TRINITY_CHAOS_SEED_OFFSET=$((i * 1000)) \
      ctest --output-on-failure -j "$(nproc)" -L 'chaos|serving|txn|coldtier'; then
      echo "=== chaos sweep: offset $((i * 1000)) FAILED ==="
      FAILED+=("$((i * 1000))")
    fi
  done
  if ((${#FAILED[@]} > 0)); then
    echo "chaos sweep: failing offsets: ${FAILED[*]}"
    exit 1
  fi
  echo "chaos sweep: all ${SWEEP} offsets passed"
  exit 0
fi

if [[ "${1:-}" == "--stress" ]]; then
  # Thread interleaving is the one input the seeded fault injector does not
  # control. Run the threaded chaos, serving and txn suites on the default
  # (unsanitized) build with three tests per core, each repeated until it
  # fails or has passed N times (default 10). The overload widens the window
  # between a reader seeing a machine down and acting on it; a stale
  # recovery request that deposed a live machine showed only like this,
  # never with the suite run alone.
  REPEAT="${2:-10}"
  cmake --preset default
  cmake --build --preset default -j "$(nproc)"
  cd build
  ctest --output-on-failure -j $((3 * $(nproc))) -L 'chaos|serving|txn' \
    --repeat until-fail:"${REPEAT}"
  exit 0
fi

if [[ "${1:-}" == "--tsan" ]]; then
  # The compute engines run per-machine vertex loops on a thread pool; the
  # compute + chaos labels drive every multithreaded code path (supersteps,
  # sweep barriers, packed sends, crash recovery) under the race detector.
  # The storage label adds the concurrent-read torture suite (readers racing
  # defrag, relocations, and replica promotion on the shared-lock hot path);
  # the serving label adds the front-door suite (worker threads racing
  # admission control and the shared retry budget through a machine kill);
  # the analytics label adds snapshot builds racing live writers plus the
  # sharded triangle-counting pass; the txn label adds contended optimistic
  # commits (intent CAS races, wound-abort decision races, the shared
  # timestamp oracle) across worker threads; the coldtier label adds the
  # memory-hierarchy suite (readers racing fault-ins and clock eviction on
  # budgeted trunks); the net label adds the fabric suite (concurrent runs
  # charging their own meter sets, per-run handler ids).
  cmake --preset tsan
  cmake --build --preset tsan -j "$(nproc)"
  # libstdc++'s std::atomic<std::shared_ptr> spin-lock protocol is not
  # tsan-annotated; suppress the library internals (see scripts/tsan.supp).
  export TSAN_OPTIONS="suppressions=$PWD/scripts/tsan.supp${TSAN_OPTIONS:+ $TSAN_OPTIONS}"
  cd build-tsan
  ctest --output-on-failure -j "$(nproc)" -L 'compute|chaos|storage|serving|analytics|txn|coldtier|net'
  exit 0
fi

FILTER=()
if [[ "${1:-}" == "--chaos" ]]; then
  FILTER=(-L chaos)
fi

cmake --preset sanitize
cmake --build --preset sanitize -j "$(nproc)"
cd build-sanitize
ASAN_OPTIONS=detect_leaks=0 ctest --output-on-failure -j "$(nproc)" "${FILTER[@]}"
