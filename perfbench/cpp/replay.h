// In-process cost attribution for the traced run.
//
// Zero-worker replay (the method of "Runtime vs Scheduler: Analyzing Dask's
// Overheads"): the workload's call sequence — submit, get_work /
// deliver_results with the workload's sentinels, subscribe_results acks —
// runs against a bare core::Dispatcher with no server, no sockets and tasks
// that take no time, so every microsecond measured is dispatcher work.
//
// Codec crossings: the public wire codec re-run on copies of frames the live
// run produced, at their real bundle sizes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/task.h"
#include "workload.h"

namespace perfbench {

/// CPU microseconds per task, so the lines add up against the host's
/// measured CPU per task.
struct ReplayCost {
  std::uint64_t tasks{0};
  double submit_us{0};    // per task, Dispatcher::submit
  double get_work_us{0};  // per task, Dispatcher::get_work
  double deliver_us{0};   // per task, Dispatcher::deliver_results
  /// Per task: subscribe_results acks plus the CPU of every other thread in
  /// the process during the replay (notify pool: notifications and result
  /// stream drains; with a journal, also its drain thread).
  double egress_us{0};
  [[nodiscard]] double cycle_us() const {
    return submit_us + get_work_us + deliver_us + egress_us;
  }
};

/// Replay `tasks` tasks of `workload`. A non-empty `journal_dir` (which must
/// not exist yet) attaches a group-commit ha::AsyncJournal there.
[[nodiscard]] ReplayCost replay_dispatcher(const Workload& workload,
                                           const TaskFactory& factory,
                                           std::uint64_t tasks,
                                           const std::string& journal_dir);

/// Nanoseconds per task for each dispatcher-side codec crossing.
struct CrossingCost {
  double submit_decode_ns{0};
  double task_bundle_encode_ns{0};
  double result_bundle_decode_ns{0};
  double result_stream_encode_ns{0};
};

struct CrossingInputs {
  std::vector<std::vector<std::uint8_t>> submits;         // encoded SubmitRequest
  std::vector<std::vector<std::uint8_t>> task_bundles;    // encoded GetWorkReply/TaskBundle
  std::vector<std::vector<std::uint8_t>> result_bundles;  // encoded ResultBundle
  /// Result batches as the client received them; re-framed as ResultStream.
  std::vector<std::vector<falkon::TaskResult>> result_batches;
};

[[nodiscard]] CrossingCost time_crossings(const CrossingInputs& inputs,
                                          double seconds_each);

}  // namespace perfbench
