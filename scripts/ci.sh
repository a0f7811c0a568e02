#!/bin/sh
# CI entry point: build and test the two configurations that gate a change.
#
#   1. Release         — the configuration the benchmarks run in;
#   2. ASan + UBSan    — memory errors and UB across the whole test suite.
#
# An optional third pass (`scripts/ci.sh tsan`) builds with ThreadSanitizer
# and runs the concurrency-heavy suites (obs registry/tracer, dispatcher,
# executor, net reactor/TCP, stress, chaos) — slower, so it is opt-in.
#
# An optional benchmark pass (`scripts/ci.sh bench`) runs the dispatch-path
# benchmarks and gates on the committed baselines (scripts/bench.sh) —
# opt-in because throughput numbers only mean something on a quiet host.
#
# The chaos stage re-runs the fault-injection soak (test_chaos, fixed seeds
# — see docs/FAULTS.md) under each sanitizer explicitly, so a recovery-path
# regression fails CI with the soak's own diagnostics even when the rest of
# the suite passes.
#
# The prop stage re-runs the seeded property suites (ctest -L prop, see
# docs/TESTING.md) at a raised fixed budget, so every CI run scans more
# workloads than a default local ctest while staying reproducible.
#
# The ha stage (ctest -L ha, see docs/HA.md) does the same for the
# durability/failover stack — WAL torn-tail fuzzing, standby takeover, the
# primary-kill chaos case, the two-standby election/split-brain regression
# and the multi-standby double-failover soak (kill the primary, then kill
# the winning standby) — under ASan+UBSan, and again under TSan in the
# opt-in pass (the WAL append path, the replication tail thread, the
# election exchange and the promotion handoff are exactly the cross-thread
# sharing TSan is for).
#
# The data stage (ctest -L data, see docs/DATA.md) re-runs the
# data-diffusion stack — wire fuzz for the digest/fetch/evict messages and
# the end-to-end TCP locality/P2P-fetch suite — under ASan+UBSan, and the
# TCP suite again under TSan in the opt-in pass (digest application races
# the router's holder index; evictions race in-flight routing decisions).
#
# An optional flake hunt (`scripts/ci.sh flakes`) re-runs the tier-1
# suites up to 20 times each at twice the core count in parallel, stopping
# at the first failure: a test that only fails on a loaded host shows up
# here instead of as a one-in-N red run.
#
# An optional coverage pass (`scripts/ci.sh coverage`) builds with gcov
# instrumentation, runs the tier-1 + prop suites, and reports line/branch
# coverage via gcovr when the tool is installed — informational only,
# never a gate (and skipped gracefully where gcovr is absent).
set -eu
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

# run_filtered BINARY MIN_TESTS FILTER: run a gtest binary under FILTER,
# failing first if the filter selects fewer than MIN_TESTS tests.
run_filtered() {
  matched="$("$1" --gtest_list_tests --gtest_filter="$3" | grep -c '^  ' || true)"
  if [ "$matched" -lt "$2" ]; then
    echo "$1: filter '$3' matches $matched tests, expected >= $2" >&2
    exit 1
  fi
  "$1" --gtest_filter="$3"
}

echo "== Release build + ctest =="
cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-ci-release -j "$JOBS"
ctest --test-dir build-ci-release --output-on-failure -j "$JOBS"

echo "== Property suites (raised fixed budget) =="
FALKON_PROP_CASES=400 \
  ctest --test-dir build-ci-release --output-on-failure -L prop

echo "== ASan+UBSan build + ctest =="
cmake -B build-ci-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DFALKON_ASAN=ON >/dev/null
cmake --build build-ci-asan -j "$JOBS"
ctest --test-dir build-ci-asan --output-on-failure -j "$JOBS"

echo "== Chaos soak under ASan+UBSan =="
ctest --test-dir build-ci-asan --output-on-failure -R 'test_chaos|test_fault'

echo "== Multi-standby double-failover chaos variant under ASan+UBSan =="
# Run the election chaos cases by themselves too: a split-brain or a
# stalled second election fails this stage with only its own output,
# instead of being buried in the full soak log.
build-ci-asan/tests/test_chaos --gtest_filter='ChaosHa.*'

echo "== HA durability/failover suite under ASan+UBSan =="
ctest --test-dir build-ci-asan --output-on-failure -L ha

echo "== Data-diffusion suite under ASan+UBSan =="
# ctest -L data (see docs/DATA.md): digest advertising over heartbeats,
# good-cache-compute routing, peer-to-peer fetch and the LRU evict path —
# the suites to re-run by themselves when touching the data plane.
ctest --test-dir build-ci-asan --output-on-failure -L data

if [ "${1:-}" = "bench" ]; then
  echo "== Benchmark gate =="
  scripts/bench.sh
fi

if [ "${1:-}" = "flakes" ]; then
  echo "== Flake hunt: tier-1 repeated under 2x-oversubscribed ctest =="
  ctest --test-dir build-ci-release --output-on-failure -L 'unit|integration' \
        --repeat until-fail:20 -j "$((2 * JOBS))"
fi

if [ "${1:-}" = "coverage" ]; then
  echo "== Coverage build + tier-1 and prop suites =="
  cmake -B build-ci-cov -S . -DCMAKE_BUILD_TYPE=Debug \
        -DFALKON_COVERAGE=ON >/dev/null
  cmake --build build-ci-cov -j "$JOBS"
  ctest --test-dir build-ci-cov --output-on-failure -j "$JOBS" \
        -L 'unit|integration'
  ctest --test-dir build-ci-cov --output-on-failure -L prop
  if command -v gcovr >/dev/null 2>&1; then
    echo "== Coverage report (informational, no gate) =="
    gcovr --root . --filter 'src/' build-ci-cov \
          --print-summary --txt build-ci-cov/coverage.txt || true
    echo "full report: build-ci-cov/coverage.txt"
  else
    echo "gcovr not installed; skipping coverage report"
  fi
fi

if [ "${1:-}" = "tsan" ]; then
  echo "== TSan build + concurrency suites =="
  cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DFALKON_TSAN=ON >/dev/null
  cmake --build build-ci-tsan -j "$JOBS"
  # test_net/test_tcp cover the reactor: the loop thread owning every
  # connection while producers append to outboxes and handlers run on the
  # pool — exactly the sharing TSan is for. (test_net$ keeps the
  # 10k-connection test_net_soak out of the TSan pass: 20k fds at TSan
  # slowdown blows the time budget without adding new interleavings.)
  ctest --test-dir build-ci-tsan --output-on-failure -j "$JOBS" \
        -R 'test_obs|test_dispatcher|test_executor|test_stress|test_net$|test_tcp|test_wal|test_ha|test_dataaware'
  echo "== Reactor cross-thread suites under TSan =="
  # The reactor's cross-thread paths alone first, so a race report names
  # them (producers appending to outboxes and requesting flushes from
  # handler and dispatcher threads, handlers recycling into the buffer
  # pool, the accept-backoff timer) instead of being buried in the suite.
  # run_filtered fails if a filter matches fewer tests than it names: a
  # filter that matches nothing would otherwise pass silently.
  run_filtered build-ci-tsan/tests/test_net 5 \
    'Reactor.*:Rpc.PipelinedCallsShareOneConnection:Rpc.WatermarkBackpressureIsolatedPerConnection:Rpc.AcceptBackoffOnFdExhaustionThenRecovers:Push.NotifyFromForeignThreadReachesEverySubscriber'
  run_filtered build-ci-tsan/tests/test_tcp 1 \
    'TcpSharedConnection.ManyExecutorIdsShareOneRpcAndOnePushConnection'
  echo "== Election and split-brain regression under TSan =="
  # The election path is all cross-thread: tail threads answering
  # ElectionPing while the failover timer promotes, two standbys racing
  # for the shared-directory fence. Run those cases alone first so a race
  # report names the election, then the full chaos soak.
  build-ci-tsan/tests/test_ha --gtest_filter='HaElection.*:HaSoak.*'
  build-ci-tsan/tests/test_chaos --gtest_filter='ChaosHa.*'
  echo "== Chaos soak under TSan =="
  ctest --test-dir build-ci-tsan --output-on-failure -R 'test_chaos|test_fault'
fi

echo "CI OK"
