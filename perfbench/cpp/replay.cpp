#include "replay.h"

#include <time.h>

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/clock.h"
#include "core/dispatcher.h"
#include "daemon_config.h"
#include "ha/async_journal.h"
#include "ha/journal.h"
#include "util.h"
#include "wire/message.h"

namespace perfbench {
namespace {

namespace core = falkon::core;
namespace wire = falkon::wire;

// TcpDispatcherClient acknowledges streamed results in batches of this many.
constexpr std::uint64_t kAckBatchResults = 8192;

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Wake-ups from the dispatcher's notify pool: executor notifications and
/// streamed result batches.
struct Events {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::uint64_t> notified;
  std::uint64_t streamed{0};
  std::uint64_t last_seq{0};
};

struct ExecutorSink final : core::ExecutorSink {
  explicit ExecutorSink(Events& events) : events(events) {}
  void notify(falkon::ExecutorId id, std::uint64_t) override {
    std::lock_guard lock(events.mu);
    events.notified.push_back(id.value);
    events.cv.notify_one();
  }
  Events& events;
};

struct ClientSink final : core::ClientSink {
  explicit ClientSink(Events& events) : events(events) {}
  void notify(falkon::InstanceId, std::uint64_t) override {}
  bool deliver(falkon::InstanceId, std::uint64_t seq,
               const std::vector<falkon::TaskResult>& results) override {
    std::lock_guard lock(events.mu);
    events.streamed += results.size();
    events.last_seq = seq;
    events.cv.notify_one();
    return true;
  }
  Events& events;
};

/// Accumulates the calling thread's CPU time in one kind of call; time
/// blocked (a journal barrier, a contended lock) is not CPU and not counted.
struct Timer {
  double total_s{0};
  template <class Fn>
  auto operator()(Fn&& fn) {
    const double start = cpu_clock_s(CLOCK_THREAD_CPUTIME_ID);
    auto result = fn();
    total_s += cpu_clock_s(CLOCK_THREAD_CPUTIME_ID) - start;
    return result;
  }
};

struct ReplayExecutor {
  falkon::ExecutorId id;
  bool busy{false};      // between a notification and its empty get_work
  bool notified{false};  // a notification arrived while busy
  std::vector<falkon::TaskSpec> bundle;  // tasks to "run" and deliver next
};

}  // namespace

ReplayCost replay_dispatcher(const Workload& workload,
                             const TaskFactory& factory, std::uint64_t tasks,
                             const std::string& journal_dir) {
  std::unique_ptr<falkon::ha::AsyncJournal> journal;
  if (!journal_dir.empty()) {
    falkon::ha::Journal::Options options;
    options.dir = journal_dir;
    auto opened = falkon::ha::Journal::open(options);
    if (!opened.ok()) {
      std::fprintf(stderr, "replay: journal: %s\n", opened.error().str().c_str());
      return {};
    }
    journal = std::make_unique<falkon::ha::AsyncJournal>(opened.take());
  }
  core::DispatcherConfig config = daemon_dispatcher_config();
  config.journal = journal.get();
  falkon::RealClock clock;
  Events events;
  core::Dispatcher dispatcher(clock, config);
  dispatcher.set_client_sink(std::make_shared<ClientSink>(events));
  auto sink = std::make_shared<ExecutorSink>(events);

  std::vector<ReplayExecutor> execs(static_cast<std::size_t>(workload.executors));
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < execs.size(); ++i) {
    wire::RegisterRequest request;
    request.node_id = falkon::NodeId{i + 1};
    request.host = "perfbench-replay";
    auto id = dispatcher.register_executor(request, sink);
    if (!id.ok()) return {};
    execs[i].id = id.value();
    index_of[id.value().value] = i;
  }
  auto instance = dispatcher.create_instance(falkon::ClientId{1});
  if (!instance.ok() || !dispatcher.subscribe_results(instance.value(), 0).ok()) {
    return {};
  }

  const std::uint32_t pull = workload.adaptive ? wire::kAdaptiveBundle : 1;
  const std::uint32_t want = workload.adaptive ? wire::kAdaptiveWant : 1;
  const std::uint64_t window =
      workload.loop == Loop::kClosed ? workload.window : 1;
  const std::uint64_t bundle = workload.loop == Loop::kClosed ? workload.bundle : 1;
  Timer submit_t;
  Timer get_work_t;
  Timer deliver_t;
  Timer ack_t;
  std::uint64_t submitted = 0;
  std::uint64_t streamed = 0;
  std::uint64_t last_seq = 0;
  std::uint64_t acked_seq = 0;
  std::vector<std::size_t> runnable;

  const double process_cpu0 = cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID);
  const double thread_cpu0 = cpu_clock_s(CLOCK_THREAD_CPUTIME_ID);
  const double deadline = mono_s() + 60.0;
  while (streamed < tasks && mono_s() < deadline) {
    // Client: keep the window full (closed) or one task in flight (open).
    while (submitted < tasks && submitted - streamed + bundle <= window) {
      std::vector<falkon::TaskSpec> specs(std::min(bundle, tasks - submitted));
      for (std::size_t i = 0; i < specs.size(); ++i) factory.fill(submitted + i, specs[i]);
      submitted += specs.size();
      auto accepted = submit_t([&] {
        return dispatcher.submit(instance.value(), std::move(specs));
      });
      if (!accepted.ok()) return {};
    }
    // Pick up notifications and stream progress from the notify pool.
    {
      std::unique_lock lock(events.mu);
      if (runnable.empty() && events.notified.empty() &&
          events.streamed == streamed) {
        events.cv.wait_for(lock, std::chrono::milliseconds(100));
      }
      streamed = events.streamed;
      last_seq = events.last_seq;
      for (std::uint64_t id : events.notified) {
        ReplayExecutor& exec = execs[index_of[id]];
        if (exec.busy) {
          exec.notified = true;
        } else {
          exec.busy = true;
          runnable.push_back(index_of[id]);
        }
      }
      events.notified.clear();
    }
    // Executors: one exchange each per round, like ExecutorRuntime's loop.
    std::vector<std::size_t> still;
    for (std::size_t index : runnable) {
      ReplayExecutor& exec = execs[index];
      if (exec.bundle.empty()) {
        auto work = get_work_t([&] { return dispatcher.get_work(exec.id, pull); });
        if (!work.ok()) return {};
        exec.bundle = work.take();
        if (exec.bundle.empty()) {
          if (exec.notified) {
            exec.notified = false;
            still.push_back(index);
          } else {
            exec.busy = false;
          }
          continue;
        }
      }
      std::vector<falkon::TaskResult> results(exec.bundle.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        results[i].task_id = exec.bundle[i].id;
        results[i].executor_id = exec.id;
      }
      auto ack = deliver_t([&] {
        return dispatcher.deliver_results(exec.id, std::move(results), want);
      });
      if (!ack.ok()) return {};
      exec.bundle = std::move(ack.value().piggyback);
      still.push_back(index);
    }
    runnable = std::move(still);
    // Client: cumulative ack every kAckBatchResults streamed results.
    if (last_seq - acked_seq >= kAckBatchResults) {
      const std::uint64_t ack = last_seq;
      if (!ack_t([&] { return dispatcher.subscribe_results(instance.value(), ack); })
               .ok()) {
        return {};
      }
      acked_seq = ack;
    }
  }
  const double other_threads_cpu =
      (cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID) - process_cpu0) -
      (cpu_clock_s(CLOCK_THREAD_CPUTIME_ID) - thread_cpu0);
  dispatcher.shutdown();
  if (streamed < tasks) return {};

  ReplayCost cost;
  cost.tasks = tasks;
  const double per_task_us = 1e6 / static_cast<double>(tasks);
  cost.submit_us = submit_t.total_s * per_task_us;
  cost.get_work_us = get_work_t.total_s * per_task_us;
  cost.deliver_us = deliver_t.total_s * per_task_us;
  cost.egress_us = (ack_t.total_s + other_threads_cpu) * per_task_us;
  return cost;
}

namespace {

/// Median over passes of ns per task for `pass`, which returns the tasks
/// it processed; passes repeat until `seconds` have elapsed (at least 3).
template <class Pass>
double per_task_ns(double seconds, Pass&& pass) {
  std::vector<double> samples;
  const double end = mono_s() + seconds;
  while (samples.size() < 3 || mono_s() < end) {
    const double start = mono_s();
    const std::uint64_t n = pass();
    const double elapsed = mono_s() - start;
    if (n == 0) return 0.0;
    samples.push_back(elapsed * 1e9 / static_cast<double>(n));
  }
  return median(samples);
}

std::uint64_t tasks_in(const wire::Message& message) {
  if (const auto* m = std::get_if<wire::SubmitRequest>(&message)) return m->tasks.size();
  if (const auto* m = std::get_if<wire::GetWorkReply>(&message)) return m->tasks.size();
  if (const auto* m = std::get_if<wire::TaskBundle>(&message)) return m->tasks.size();
  if (const auto* m = std::get_if<wire::ResultBundle>(&message)) return m->results.size();
  if (const auto* m = std::get_if<wire::ResultStream>(&message)) return m->results.size();
  return 0;
}

/// Decode every frame once; returns tasks carried (0 if any fails).
double decode_cost(const std::vector<std::vector<std::uint8_t>>& frames,
                   double seconds) {
  std::uint64_t per_pass = 0;
  for (const auto& frame : frames) {
    auto message = wire::decode_message(frame);
    if (!message.ok()) return 0.0;
    per_pass += tasks_in(message.value());
  }
  return per_task_ns(seconds, [&]() -> std::uint64_t {
    for (const auto& frame : frames) {
      auto message = wire::decode_message(frame);
      if (!message.ok()) return 0;
    }
    return per_pass;
  });
}

double encode_cost(const std::vector<wire::Message>& messages, double seconds) {
  std::uint64_t per_pass = 0;
  for (const auto& message : messages) per_pass += tasks_in(message);
  wire::Writer writer;  // reused, as the server's thread-local scratch is
  return per_task_ns(seconds, [&]() -> std::uint64_t {
    for (const auto& message : messages) wire::encode_message_into(writer, message);
    return per_pass;
  });
}

}  // namespace

CrossingCost time_crossings(const CrossingInputs& inputs, double seconds_each) {
  CrossingCost cost;
  cost.submit_decode_ns = decode_cost(inputs.submits, seconds_each);
  cost.result_bundle_decode_ns = decode_cost(inputs.result_bundles, seconds_each);

  std::vector<wire::Message> bundles;
  for (const auto& frame : inputs.task_bundles) {
    auto message = wire::decode_message(frame);
    if (message.ok()) bundles.push_back(message.take());
  }
  cost.task_bundle_encode_ns = encode_cost(bundles, seconds_each);

  std::vector<wire::Message> streams;
  std::uint64_t seq = 0;
  for (const auto& batch : inputs.result_batches) {
    wire::ResultStream frame;
    frame.instance_id = falkon::InstanceId{1};
    frame.results = batch;
    seq += batch.size();
    frame.seq = seq;
    streams.emplace_back(std::move(frame));
  }
  cost.result_stream_encode_ns = encode_cost(streams, seconds_each);
  return cost;
}

}  // namespace perfbench
