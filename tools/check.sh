#!/usr/bin/env bash
# Tier-1 verification plus sanitizer passes over the parallel campaign and
# observability paths.  Run from the repository root:
#
#   tools/check.sh           # full: tier-1 build+ctest, fault-injection
#                            # ctest, TSan, then ASan+UBSan
#   tools/check.sh --tier1   # tier-1 only
#   tools/check.sh --faults  # tier-1 ctest with MCDFT_FAULTPOINTS armed
#   tools/check.sh --tsan    # TSan subset only
#   tools/check.sh --asan    # ASan+UBSan subset only
#
# Nightly deep legs (CI's schedule: trigger; far slower than the PR legs):
#   tools/check.sh --nightly-faults  # ctest with faultpoints at elevated
#                                    # rates (every write step + SMW solves)
#   tools/check.sh --nightly-tsan    # the FULL test suite under TSan, not
#                                    # just the concurrency subset
set -euo pipefail

cd "$(dirname "$0")/.."

run_tier1=1
run_faults=1
run_tsan=1
run_asan=1
run_nightly_faults=0
run_nightly_tsan=0
case "${1:-}" in
  --tier1) run_faults=0; run_tsan=0; run_asan=0 ;;
  --faults) run_tier1=0; run_tsan=0; run_asan=0 ;;
  --tsan) run_tier1=0; run_faults=0; run_asan=0 ;;
  --asan) run_tier1=0; run_faults=0; run_tsan=0 ;;
  --nightly-faults)
    run_tier1=0; run_faults=0; run_tsan=0; run_asan=0; run_nightly_faults=1 ;;
  --nightly-tsan)
    run_tier1=0; run_faults=0; run_tsan=0; run_asan=0; run_nightly_tsan=1 ;;
  "") ;;
  *) echo "usage: tools/check.sh [--tier1|--faults|--tsan|--asan|" \
          "--nightly-faults|--nightly-tsan]" >&2; exit 2 ;;
esac

# The armed-suite spec for fault-injection runs: rare short checkpoint
# writes plus rare SMW solve failures.  Byte-pinning tests opt out via
# util::faultpoint::DisarmAll(); everything else must absorb the faults
# (retry ladder, checkpoint salvage) and still pass.  Both firing modes
# are deterministic per seed, so this run is reproducible.
FAULT_SPEC='checkpoint.write.short:0.05:1234,smw.solve:0.01:99'

# The nightly spec arms every write faultpoint (short write, fsync, rename
# — checkpoint and cache tiers) plus SMW solve failures, all at rates an
# order of magnitude above the PR legs.  Still deterministic per seed.
NIGHTLY_FAULT_SPEC='checkpoint.write.short:0.25:1234,checkpoint.write.fsync:0.10:4321,checkpoint.write.rename:0.10:2468,cache.write.short:0.25:1357,smw.solve:0.05:99'

# Concurrency-sensitive subset: parallel campaigns, the Monte-Carlo
# envelope (ToleranceEnvelope* also covers the shared envelope pass: its
# per-sample worker slots and their reduction after the join, at thread
# counts 1-4, in shard merges and under a mid-pass cancel), the pool,
# solver reuse, the frequency-major low-rank fault
# solves (including the adjoint sensitivity screen and its shard merges),
# the campaign's shared stamp-delta table (every unit worker reads it
# concurrently: SharedFaultDeltas, and the CampaignSweepPins zoo pins under
# Campaign*), the transient march at 1, 2 and 8 threads and its zoo pins,
# the shard path through the shared campaign-unit executor (AC and
# transient shard merges, and the poisoned shard contract on every solve
# path), the metrics/trace/run-report layer
# (striped counters are updated from every pool worker), and the daemon
# stack — campaign service, single-flight dedup soak, NDJSON protocol
# threads, request cancellation/deadlines (tokens fired across threads
# mid-campaign), socket timeout reaping, and the sharded LRU / result /
# shared-factor caches.
PARALLEL_FILTER='Campaign*:SharedFaultDeltas.*:TransientCampaign.*:WholeUnitScheduling*:ToleranceEnvelope*:Parallel*:SolverReuse*:LowRank*:*Screen*:ShardMerge*:TransientShardMerge*:Resilience.ShardContractHoldsOnEverySolvePath:Metrics*:Trace*:RunReport*:*Server*:*Daemon*:*Cache*:Lru*:*Cancel*:UtilSocket*'

if [[ "$run_tier1" == 1 ]]; then
  echo "=== tier-1: configure + build + ctest ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j
  (cd build && ctest --output-on-failure -j "$(nproc)")
fi

if [[ "$run_faults" == 1 ]]; then
  echo "=== fault injection: tier-1 ctest with MCDFT_FAULTPOINTS armed ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j
  (cd build && MCDFT_FAULTPOINTS="$FAULT_SPEC" \
    ctest --output-on-failure -j "$(nproc)")
fi

if [[ "$run_nightly_faults" == 1 ]]; then
  echo "=== nightly: tier-1 ctest with elevated faultpoint rates ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j
  (cd build && MCDFT_FAULTPOINTS="$NIGHTLY_FAULT_SPEC" \
    ctest --output-on-failure -j "$(nproc)")
fi

if [[ "$run_nightly_tsan" == 1 ]]; then
  echo "=== nightly: FULL test suite under TSan ==="
  cmake -B build-tsan -S . -DMCDFT_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target mcdft_tests
  TSAN_OPTIONS="halt_on_error=1" MCDFT_THREADS=4 MCDFT_METRICS=1 \
    ./build-tsan/tests/mcdft_tests
fi

if [[ "$run_tsan" == 1 ]]; then
  echo "=== TSan: parallel campaign / envelope / pool / metrics tests ==="
  cmake -B build-tsan -S . -DMCDFT_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target mcdft_tests
  # TSAN_OPTIONS makes any report fail the run even where a test would pass.
  # MCDFT_METRICS=1 turns the striped counters on so TSan sees their writes.
  TSAN_OPTIONS="halt_on_error=1" MCDFT_THREADS=4 MCDFT_METRICS=1 \
    ./build-tsan/tests/mcdft_tests \
    --gtest_filter="$PARALLEL_FILTER"
fi

if [[ "$run_asan" == 1 ]]; then
  echo "=== ASan+UBSan: full test suite with metrics enabled ==="
  cmake -B build-asan -S . -DMCDFT_SANITIZE=address >/dev/null
  cmake --build build-asan -j --target mcdft_tests
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    MCDFT_THREADS=4 MCDFT_METRICS=1 \
    ./build-asan/tests/mcdft_tests
fi

echo "check.sh: OK"
