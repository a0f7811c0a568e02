// Workload definitions and seeded task generation for the perfbench load
// generator. Everything the dispatcher sees is derived from (workload, seed,
// sequence number), so the same seed always produces the same tasks and the
// executors can verify each body they receive without shared state.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/task.h"

namespace perfbench {

enum class Loop : std::uint8_t { kClosed, kOpen };
enum class Body : std::uint8_t { kSleep0, kSwift };

struct Workload {
  const char* name;
  Loop loop;
  Body body;
  /// Host opens a group-commit ha::AsyncJournal on a fresh WAL directory.
  bool journal;
  int executors;
  /// true: GetWork/ResultBundle carry the kAdaptiveBundle/kAdaptiveWant
  /// sentinels; false: one task per exchange, piggyback 1.
  bool adaptive;
  /// Closed loop: tasks kept outstanding, submitted in `bundle`-task Submits.
  std::uint32_t window;
  std::uint32_t bundle;
  /// Open loop: Poisson arrival rate, one task per Submit.
  double rate_per_s;
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// nullptr when no workload has this name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// Deterministic task bodies. Task ids are `base + seq` with a seed-derived
/// base, so ids differ between seeds but are dense within a run.
class TaskFactory {
 public:
  TaskFactory(const Workload& workload, std::uint64_t seed);

  [[nodiscard]] falkon::TaskId id_of(std::uint64_t seq) const {
    return falkon::TaskId{base_ + seq};
  }
  [[nodiscard]] std::uint64_t base() const { return base_; }

  /// Overwrite `out` with task `seq`, reusing its string storage.
  void fill(std::uint64_t seq, falkon::TaskSpec& out) const;

  /// True when `got` is exactly the body generated for its id.
  [[nodiscard]] bool matches(const falkon::TaskSpec& got) const;

 private:
  Body body_;
  std::uint64_t seed_;
  std::uint64_t base_;
};

/// Poisson arrival times (seconds from 0) covering [0, horizon_s).
[[nodiscard]] std::vector<double> poisson_schedule(std::uint64_t seed,
                                                   double rate_per_s,
                                                   double horizon_s);

}  // namespace perfbench
