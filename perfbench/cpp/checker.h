// Exactly-once output check: every submitted task id must come back exactly
// once and successfully; nothing unsubmitted may come back at all.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/task.h"

namespace perfbench {

struct CheckReport {
  std::uint64_t submitted{0};
  std::uint64_t ok{0};
  std::uint64_t failed{0};      // came back with a non-success state
  std::uint64_t missing{0};     // submitted, never came back
  std::uint64_t duplicated{0};  // extra copies beyond the first
  std::uint64_t unexpected{0};  // ids that were never submitted
  std::uint64_t refused{0};     // submits the dispatcher refused or timed out

  /// failed + missing + duplicated + unexpected + refused.
  [[nodiscard]] std::uint64_t errors() const {
    return failed + missing + duplicated + unexpected + refused;
  }
  [[nodiscard]] bool passed() const { return errors() == 0; }
  [[nodiscard]] std::string describe() const;
};

/// Single-threaded: the thread that receives results calls on_result; the
/// number of submitted tasks (ids base .. base + submitted - 1) is passed to
/// finish() once submission has stopped.
class ExactlyOnceChecker {
 public:
  explicit ExactlyOnceChecker(std::uint64_t id_base) : base_(id_base) {}

  void on_result(const falkon::TaskResult& result);
  /// Submits for ids [base + first, base + first + count) were refused.
  void on_refused(std::uint64_t first, std::uint64_t count);

  [[nodiscard]] CheckReport finish(std::uint64_t submitted) const;

 private:
  std::uint64_t base_;
  std::vector<std::uint8_t> seen_;    // copies received, saturating
  std::vector<std::uint8_t> failed_;  // 1 when any copy was unsuccessful
  std::vector<std::uint8_t> refused_;
  std::uint64_t unexpected_{0};
};

}  // namespace perfbench
