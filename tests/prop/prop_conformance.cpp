// Property suite: sim ↔ TCP trace conformance.
//
// The acceptance bar for trusting the DES as a stand-in for deployments:
// for the same WorkloadSpec, the DES and the loopback-TCP stack must
// describe equivalent protocol histories — same task set, both quiescent,
// per-task stage ordering valid on both sides, exactly one terminal ack
// per task — and, because generated fault plans are recoverable by
// construction, *every* task completes on both backends even on
// fault-bearing specs.
//
// Budget: 26 randomized workloads from the seed scan plus 6 forced-fault
// workloads (32 conformance pairs per invocation). Each pair runs a full
// TCP deployment, so this suite is serialised in ctest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "testkit/testkit.h"

namespace falkon::testkit {
namespace {

std::vector<std::string> conformance_property(const WorkloadSpec& spec) {
  const RunHistory sim = run_sim(spec);
  const RunHistory tcp = run_tcp(spec);
  std::vector<std::string> violations = check_invariants(sim);
  for (auto& v : check_invariants(tcp)) violations.push_back(std::move(v));
  for (auto& v : check_conformance(sim, tcp, /*require_all_complete=*/true)) {
    violations.push_back(std::move(v));
  }
  return violations;
}

TEST(PropConformance, SimAndTcpAgreeOnRandomWorkloads) {
  PropertyOptions options;
  options.base_seed = 9000;
  options.cases = 26;
  // TCP runs are expensive; keep the shrink descent bounded.
  options.max_shrink_steps = 24;
  const PropertyOutcome outcome =
      check_property("sim-tcp-conformance", options, conformance_property);
  EXPECT_TRUE(outcome.passed) << outcome.report("sim-tcp-conformance");
  EXPECT_GE(outcome.cases_run, 1);
}

TEST(PropConformance, BundleOutlastingTheResponseTimeoutCompletes) {
  // Seed 9060 of the random scan: the last 43 tasks leave as one adaptive
  // bundle that runs ~0.58 s against a 0.47 s response timeout. A replay
  // deadline that counted only each task's own estimate replayed the whole
  // bundle on every attempt until the retry budget ran out (~23 s a run,
  // and the shrinker re-ran it).
  const std::vector<std::string> violations =
      conformance_property(generate_workload(9060));
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(PropConformance, SimAndTcpAgreeUnderForcedFaultPlans) {
  // The random scan leaves fault-bearing specs to chance; force a plan on
  // every case here so ack retirement, replay and crash recovery are
  // compared on each invocation.
  PropertyOptions options;
  options.base_seed = 9500;
  options.cases = 6;
  options.max_shrink_steps = 24;
  std::uint64_t total_injected = 0;
  const PropertyOutcome outcome = check_property(
      "sim-tcp-conformance-faulty", options, [&](const WorkloadSpec& raw) {
        WorkloadSpec spec = raw;
        spec.fault_intensity = std::max(spec.fault_intensity, 0.5);
        // Keep the forced runs quick: cap the workload, keep budgets high.
        spec.task_count = std::min<std::uint64_t>(spec.task_count, 80);
        const RunHistory sim = run_sim(spec);
        const RunHistory tcp = run_tcp(spec);
        total_injected += sim.injected_faults + tcp.injected_faults;
        std::vector<std::string> violations = check_invariants(sim);
        for (auto& v : check_invariants(tcp)) violations.push_back(std::move(v));
        for (auto& v :
             check_conformance(sim, tcp, /*require_all_complete=*/true)) {
          violations.push_back(std::move(v));
        }
        return violations;
      });
  EXPECT_TRUE(outcome.passed)
      << outcome.report("sim-tcp-conformance-faulty");
  // Forced plans must actually inject somewhere across the scan, or the
  // "faulty" conformance pass is vacuous.
  EXPECT_GT(total_injected, 0u)
      << "no fault ever fired across " << outcome.cases_run << " cases";
}

TEST(PropConformance, SimAndTcpAgreeOnDataAwareWorkloads) {
  // The random scan leaves data-bearing specs to chance; force every case
  // here so the locality router (good-cache-compute + bounded wait) and
  // the digest/evict wire traffic are conformance-checked on each
  // invocation — including invariants I11 (route-on-advertised) and I12
  // (bounded deferral) via the tcp history's data counters.
  PropertyOptions options;
  options.base_seed = 9700;
  options.cases = 6;
  options.max_shrink_steps = 24;
  std::uint64_t data_runs_checked = 0;
  const PropertyOutcome outcome = check_property(
      "sim-tcp-conformance-data", options, [&](const WorkloadSpec& raw) {
        WorkloadSpec spec = raw;
        if (spec.data_objects <= 0) {
          spec.data_objects = 1 + static_cast<int>(spec.seed % 8);
        }
        spec.task_count = std::min<std::uint64_t>(spec.task_count, 96);
        const RunHistory sim = run_sim(spec);
        const RunHistory tcp = run_tcp(spec);
        if (tcp.data_run) ++data_runs_checked;
        std::vector<std::string> violations = check_invariants(sim);
        for (auto& v : check_invariants(tcp)) violations.push_back(std::move(v));
        for (auto& v :
             check_conformance(sim, tcp, /*require_all_complete=*/true)) {
          violations.push_back(std::move(v));
        }
        return violations;
      });
  EXPECT_TRUE(outcome.passed) << outcome.report("sim-tcp-conformance-data");
  // Every pair must have run the tcp side as a data run, or I11/I12 were
  // never actually evaluated and this suite is vacuous.
  EXPECT_EQ(data_runs_checked, static_cast<std::uint64_t>(outcome.cases_run))
      << "tcp histories missing data_run counters";
}

}  // namespace
}  // namespace falkon::testkit
