// Virtual executors: N executors multiplexed by one thread over one
// pipelined RPC connection and one push connection, through the public
// wire/net API. Each executor follows core::ExecutorRuntime's loop: on a
// Notify it pulls work, "runs" every task as sleep-0 (verifying the body
// first), delivers the results asking for a piggy-backed next bundle, and
// pulls again until the dispatcher has nothing left for it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "checker.h"
#include "common/result.h"
#include "net/socket.h"
#include "wire/codec.h"
#include "wire/message.h"
#include "workload.h"

namespace perfbench {

/// Counts at the executor side of the wire (snapshotted per window).
struct FleetCounters {
  std::uint64_t tasks{0};
  std::uint64_t bundles{0};  // task-carrying replies with >= 1 task
  std::uint64_t get_work{0};
  std::uint64_t empty_get_work{0};
  std::uint64_t result_bundles{0};
  std::uint64_t notifies{0};
  std::uint64_t rpcs{0};  // every executor request (probes excluded)
  std::uint64_t task_bytes{0};    // frames carrying tasks to executors
  std::uint64_t result_bytes{0};  // ResultBundle frames
  std::uint64_t bad_bodies{0};    // task bodies that failed verification
  std::uint64_t errors{0};        // ErrorReply / unexpected replies

  FleetCounters operator-(const FleetCounters& earlier) const;
};

/// Frames kept for the codec-crossing timings (copies of real traffic).
struct FrameSamples {
  std::vector<std::vector<std::uint8_t>> task_bundles;    // encoded replies
  std::vector<std::vector<std::uint8_t>> result_bundles;  // encoded requests
};

/// Span durations (microseconds) recorded while tracing is on.
struct FleetSpans {
  std::vector<double> get_work_rtt_us;
  std::vector<double> deliver_rtt_us;
  std::vector<double> heartbeat_rtt_us;
};

class ExecutorFleet {
 public:
  /// Open-loop hook run on the fleet thread, outside the fleet lock:
  /// `next_due()` is the absolute steady time (s) of the next submit
  /// (infinity: none); `fire()` submits.
  struct Pacer {
    std::function<double()> next_due;
    std::function<void()> fire;
  };

  ExecutorFleet(const Workload& workload, const TaskFactory& factory);
  ~ExecutorFleet();

  ExecutorFleet(const ExecutorFleet&) = delete;
  ExecutorFleet& operator=(const ExecutorFleet&) = delete;

  /// Connect both channels, register every executor (pipelined), subscribe
  /// every executor id on the push connection, and run each executor's
  /// initial pull. Blocking; returns once all executors are idle.
  falkon::Status connect(const std::string& host, std::uint16_t rpc_port,
                         std::uint16_t push_port);

  void start(Pacer pacer);
  void stop();

  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }
  void set_sampling(bool on) { sampling_.store(on, std::memory_order_relaxed); }

  /// Consistent copies taken under the fleet lock.
  [[nodiscard]] FleetCounters counters();
  [[nodiscard]] FleetSpans take_spans();
  [[nodiscard]] FrameSamples take_samples();
  /// Exactly-once check of the tasks the executors ran, for ids
  /// base .. base + submitted - 1 (call after stop()).
  [[nodiscard]] CheckReport executed(std::uint64_t submitted);
  /// Why the fleet thread stopped early ("" while healthy).
  [[nodiscard]] std::string failure();

 private:
  enum class State : std::uint8_t { kIdle, kGetWork, kDeliver };
  struct VExec {
    falkon::ExecutorId id;
    State state{State::kIdle};
    bool notified{false};
    std::uint64_t last_bundle_seq{0};
    double sent_s{0.0};
  };

  void loop();
  falkon::Status read_available(falkon::net::TcpStream& stream,
                                std::vector<std::uint8_t>& buffer,
                                std::size_t& start);
  /// Handle every complete frame in buffer[start..): calls on_frame.
  template <class Fn>
  falkon::Status drain_frames(std::vector<std::uint8_t>& buffer,
                              std::size_t& start, Fn&& on_frame);
  void on_notify(const falkon::wire::Notify& notify);
  void on_reply(std::uint64_t corr, const std::uint8_t* data, std::size_t size);
  void send(std::uint64_t corr, const falkon::wire::Message& message);
  void send_get_work(std::size_t index);
  void run_bundle(std::size_t index, const std::vector<falkon::TaskSpec>& tasks);
  falkon::Status flush();
  /// Read replies until `count` frames have been handled (setup only).
  falkon::Status await_replies(std::size_t count);

  const Workload& workload_;
  const TaskFactory& factory_;
  falkon::net::TcpStream rpc_;
  falkon::net::TcpStream push_;
  std::vector<VExec> execs_;
  std::unordered_map<std::uint64_t, std::size_t> index_of_;  // id -> execs_
  std::vector<std::uint8_t> rpc_in_;
  std::size_t rpc_start_{0};
  std::vector<std::uint8_t> push_in_;
  std::size_t push_start_{0};
  std::vector<std::uint8_t> out_;
  falkon::wire::Writer writer_;
  std::size_t replies_handled_{0};

  Pacer pacer_;
  double next_probe_s_{0.0};
  std::size_t probe_index_{0};
  double probe_sent_s_{-1.0};

  std::atomic<bool> tracing_{false};
  std::atomic<bool> sampling_{false};
  std::atomic<bool> stop_{false};

  /// Guards counters_, spans_, samples_ and executed_ against the
  /// snapshotting thread; the fleet thread holds it while it processes one
  /// batch of frames.
  std::mutex mu_;
  FleetCounters counters_;
  FleetSpans spans_;
  FrameSamples samples_;
  /// Every task an executor ran. Replays are off (response_timeout_s = 0),
  /// so a task run twice is a dispatcher duplicate, which the client's
  /// stream filter would hide from the result-side check.
  ExactlyOnceChecker executed_;
  std::string failure_;

  std::thread thread_;
};

}  // namespace perfbench
