// The exactly-once checker must catch a duplicated, a missing and a failed
// result in one doctored result list, and pass the clean list.
#include <cstdio>
#include <vector>

#include "checker.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

falkon::TaskResult result_for(std::uint64_t id, bool success = true) {
  falkon::TaskResult result;
  result.task_id = falkon::TaskId{id};
  result.exit_code = success ? 0 : 1;
  result.state = success ? falkon::TaskState::kCompleted : falkon::TaskState::kFailed;
  return result;
}

}  // namespace

int main() {
  constexpr std::uint64_t kBase = 1000;
  constexpr std::uint64_t kTasks = 10;

  {
    perfbench::ExactlyOnceChecker clean(kBase);
    for (std::uint64_t seq = kTasks; seq-- > 0;) clean.on_result(result_for(kBase + seq));
    const auto report = clean.finish(kTasks);
    expect(report.passed(), "clean list passes");
    expect(report.ok == kTasks, "clean list counts every task");
  }
  {
    // seq 3 twice, seq 5 never, seq 7 failed.
    perfbench::ExactlyOnceChecker doctored(kBase);
    for (std::uint64_t seq = 0; seq < kTasks; ++seq) {
      if (seq == 5) continue;
      doctored.on_result(result_for(kBase + seq, seq != 7));
      if (seq == 3) doctored.on_result(result_for(kBase + seq));
    }
    const auto report = doctored.finish(kTasks);
    expect(!report.passed(), "doctored list fails");
    expect(report.duplicated == 1, "duplicate caught");
    expect(report.missing == 1, "missing caught");
    expect(report.failed == 1, "failed caught");
    expect(report.errors() == 3, "exactly three errors");
    expect(report.ok == kTasks - 2, "the duplicated task still counts once");
  }
  {
    // An id never submitted, and a result for a refused submit.
    perfbench::ExactlyOnceChecker stray(kBase);
    for (std::uint64_t seq = 0; seq < kTasks; ++seq) stray.on_result(result_for(kBase + seq));
    stray.on_result(result_for(kBase + kTasks + 4));
    stray.on_result(result_for(7));
    stray.on_refused(kTasks + 4, 1);
    const auto report = stray.finish(kTasks + 5);
    expect(report.unexpected == 2, "stray ids caught");
    expect(report.missing == 4, "unreturned submits are missing");
    expect(report.refused == 1, "refused submit counted");
  }
  if (failures == 0) std::printf("perfbench_test_checker: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
