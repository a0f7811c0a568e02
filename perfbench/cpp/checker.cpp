#include "checker.h"

#include <algorithm>

namespace perfbench {
namespace {

// Far above any run's task count; an id past it is garbage, not a task.
constexpr std::uint64_t kMaxTasks = 1ULL << 28;

void grow(std::vector<std::uint8_t>& v, std::uint64_t seq) {
  if (seq >= v.size()) {
    v.resize(std::max<std::uint64_t>(seq + 1, v.size() * 2), 0);
  }
}

}  // namespace

std::string CheckReport::describe() const {
  return "submitted=" + std::to_string(submitted) +
         " ok=" + std::to_string(ok) + " failed=" + std::to_string(failed) +
         " missing=" + std::to_string(missing) +
         " duplicated=" + std::to_string(duplicated) +
         " unexpected=" + std::to_string(unexpected) +
         " refused=" + std::to_string(refused);
}

void ExactlyOnceChecker::on_result(const falkon::TaskResult& result) {
  const std::uint64_t id = result.task_id.value;
  if (id < base_ || id - base_ >= kMaxTasks) {
    ++unexpected_;
    return;
  }
  const std::uint64_t seq = id - base_;
  grow(seen_, seq);
  grow(failed_, seq);
  if (seen_[seq] < 255) ++seen_[seq];
  if (!result.success()) failed_[seq] = 1;
}

void ExactlyOnceChecker::on_refused(std::uint64_t first, std::uint64_t count) {
  if (count == 0) return;
  grow(refused_, first + count - 1);
  std::fill_n(refused_.begin() + static_cast<std::ptrdiff_t>(first), count, 1);
}

CheckReport ExactlyOnceChecker::finish(std::uint64_t submitted) const {
  CheckReport report;
  report.submitted = submitted;
  report.unexpected = unexpected_;
  auto at = [](const std::vector<std::uint8_t>& v, std::uint64_t i) {
    return i < v.size() ? v[i] : std::uint8_t{0};
  };
  const std::uint64_t span =
      std::max<std::uint64_t>(submitted, std::max(seen_.size(), refused_.size()));
  for (std::uint64_t seq = 0; seq < span; ++seq) {
    const std::uint8_t copies = at(seen_, seq);
    if (seq >= submitted) {
      report.unexpected += copies;
      continue;
    }
    if (at(refused_, seq) != 0) {
      // A refused submit must not produce a result either.
      ++report.refused;
      report.unexpected += copies;
      continue;
    }
    if (copies == 0) {
      ++report.missing;
      continue;
    }
    report.duplicated += copies - 1u;
    if (at(failed_, seq) != 0) {
      ++report.failed;
    } else {
      ++report.ok;
    }
  }
  return report;
}

}  // namespace perfbench
