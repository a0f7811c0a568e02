#include "fleet.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>

#include "wire/framing.h"
#include "util.h"

namespace perfbench {

using falkon::ErrorCode;
using falkon::Status;
namespace wire = falkon::wire;

namespace {

// Correlation ids: executor i uses i + 1 (one request in flight each); the
// heartbeat probe uses its own id.
constexpr std::uint64_t kProbeCorr = 1ULL << 62;
constexpr double kProbeInterval_s = 0.002;
constexpr std::size_t kMaxSamples = 64;
constexpr std::size_t kReadChunk = 256 * 1024;

/// Encode `message` with `writer` and append it to `out` as one frame.
void append_frame(std::vector<std::uint8_t>& out, wire::Writer& writer,
                  std::uint64_t corr, const wire::Message& message) {
  encode_message_into(writer, message);
  const std::size_t at = out.size();
  out.resize(at + wire::kFrameHeaderBytes);
  wire::put_frame_header(out.data() + at, corr,
                         static_cast<std::uint32_t>(writer.size()));
  out.insert(out.end(), writer.data().begin(), writer.data().end());
}

Status io_error(const char* what) {
  return falkon::make_error(ErrorCode::kIoError,
                            std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

FleetCounters FleetCounters::operator-(const FleetCounters& e) const {
  FleetCounters d;
  d.tasks = tasks - e.tasks;
  d.bundles = bundles - e.bundles;
  d.get_work = get_work - e.get_work;
  d.empty_get_work = empty_get_work - e.empty_get_work;
  d.result_bundles = result_bundles - e.result_bundles;
  d.notifies = notifies - e.notifies;
  d.rpcs = rpcs - e.rpcs;
  d.task_bytes = task_bytes - e.task_bytes;
  d.result_bytes = result_bytes - e.result_bytes;
  d.bad_bodies = bad_bodies - e.bad_bodies;
  d.errors = errors - e.errors;
  return d;
}

ExecutorFleet::ExecutorFleet(const Workload& workload,
                             const TaskFactory& factory)
    : workload_(workload), factory_(factory), executed_(factory.base()) {}

ExecutorFleet::~ExecutorFleet() { stop(); }

Status ExecutorFleet::connect(const std::string& host, std::uint16_t rpc_port,
                              std::uint16_t push_port) {
  auto rpc = falkon::net::TcpStream::connect(host, rpc_port);
  if (!rpc.ok()) return rpc.error();
  rpc_ = rpc.take();
  auto push = falkon::net::TcpStream::connect(host, push_port);
  if (!push.ok()) return push.error();
  push_ = push.take();

  execs_.assign(static_cast<std::size_t>(workload_.executors), VExec{});
  for (std::size_t i = 0; i < execs_.size(); ++i) {
    wire::RegisterRequest request;
    request.node_id = falkon::NodeId{i + 1};
    request.host = "perfbench-loadgen";
    request.slots = 1;
    send(i + 1, request);
  }
  if (auto status = flush(); !status.ok()) return status;
  if (auto status = await_replies(execs_.size()); !status.ok()) return status;
  for (std::size_t i = 0; i < execs_.size(); ++i) {
    if (!execs_[i].id.valid()) {
      return falkon::make_error(ErrorCode::kInternal, "executor registration failed");
    }
    index_of_[execs_[i].id.value] = i;
  }

  // Every executor id subscribes on the one push connection.
  std::vector<std::uint8_t> subscriptions;
  for (const auto& exec : execs_) {
    wire::Notify subscribe;
    subscribe.executor_id = exec.id;
    append_frame(subscriptions, writer_, 0, subscribe);
  }
  if (auto status = push_.write_all(subscriptions.data(), subscriptions.size());
      !status.ok()) {
    return status;
  }

  // ExecutorRuntime starts by pulling once; the queue is empty, so every
  // executor ends idle, waiting for a notification.
  for (std::size_t i = 0; i < execs_.size(); ++i) send_get_work(i);
  if (auto status = flush(); !status.ok()) return status;
  if (auto status = await_replies(execs_.size()); !status.ok()) return status;
  for (const auto& exec : execs_) {
    if (exec.state != State::kIdle || counters_.errors != 0) {
      return falkon::make_error(ErrorCode::kInternal, "initial pull failed");
    }
  }
  return falkon::ok_status();
}

Status ExecutorFleet::await_replies(std::size_t count) {
  const std::size_t target = replies_handled_ + count;
  const double deadline = mono_s() + 10.0;
  while (replies_handled_ < target) {
    if (mono_s() > deadline) {
      return falkon::make_error(ErrorCode::kTimeout, "setup replies timed out");
    }
    pollfd fd{rpc_.fd(), POLLIN, 0};
    if (::poll(&fd, 1, 100) < 0 && errno != EINTR) return io_error("poll");
    if (auto status = read_available(rpc_, rpc_in_, rpc_start_); !status.ok()) {
      return status;
    }
    auto status = drain_frames(rpc_in_, rpc_start_,
                               [this](std::uint64_t corr, const std::uint8_t* data,
                                      std::size_t size) {
                                 on_reply(corr, data, size);
                               });
    if (!status.ok()) return status;
    if (auto flushed = flush(); !flushed.ok()) return flushed;
  }
  return falkon::ok_status();
}

void ExecutorFleet::start(Pacer pacer) {
  pacer_ = std::move(pacer);
  stop_.store(false);
  thread_ = std::thread([this] { loop(); });
}

void ExecutorFleet::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

FleetCounters ExecutorFleet::counters() {
  std::lock_guard lock(mu_);
  return counters_;
}

FleetSpans ExecutorFleet::take_spans() {
  std::lock_guard lock(mu_);
  return std::exchange(spans_, FleetSpans{});
}

FrameSamples ExecutorFleet::take_samples() {
  std::lock_guard lock(mu_);
  return std::exchange(samples_, FrameSamples{});
}

CheckReport ExecutorFleet::executed(std::uint64_t submitted) {
  std::lock_guard lock(mu_);
  return executed_.finish(submitted);
}

std::string ExecutorFleet::failure() {
  std::lock_guard lock(mu_);
  return failure_;
}

void ExecutorFleet::loop() {
  const double kInf = std::numeric_limits<double>::infinity();
  while (!stop_.load(std::memory_order_relaxed)) {
    const double now = mono_s();
    double deadline = now + 0.05;
    if (pacer_.next_due) deadline = std::min(deadline, pacer_.next_due());
    const bool tracing = tracing_.load(std::memory_order_relaxed);
    if (tracing && probe_sent_s_ < 0) {
      deadline = std::min(deadline, next_probe_s_);
    }
    const double wait = deadline == kInf ? 0.05 : std::max(0.0, deadline - now);
    timespec timeout{static_cast<time_t>(wait),
                     static_cast<long>((wait - std::floor(wait)) * 1e9)};
    pollfd fds[2] = {{rpc_.fd(), POLLIN, 0}, {push_.fd(), POLLIN, 0}};
    if (::ppoll(fds, 2, &timeout, nullptr) < 0 && errno != EINTR) {
      std::lock_guard lock(mu_);
      failure_ = "ppoll: " + std::string(std::strerror(errno));
      return;
    }

    // The submit blocks for a round trip; run it outside mu_ so the
    // collecting thread never waits on it.
    if (pacer_.next_due && mono_s() >= pacer_.next_due()) pacer_.fire();
    std::lock_guard lock(mu_);
    Status status = falkon::ok_status();
    if (fds[1].revents != 0) {
      status = read_available(push_, push_in_, push_start_);
      if (status.ok()) {
        status = drain_frames(push_in_, push_start_,
                              [this](std::uint64_t, const std::uint8_t* data,
                                     std::size_t size) {
                                auto message = wire::decode_message(data, size);
                                const auto* notify =
                                    message.ok()
                                        ? std::get_if<wire::Notify>(&message.value())
                                        : nullptr;
                                if (notify == nullptr) {
                                  ++counters_.errors;
                                  return;
                                }
                                on_notify(*notify);
                              });
      }
    }
    if (status.ok() && fds[0].revents != 0) {
      status = read_available(rpc_, rpc_in_, rpc_start_);
      if (status.ok()) {
        status = drain_frames(rpc_in_, rpc_start_,
                              [this](std::uint64_t corr, const std::uint8_t* data,
                                     std::size_t size) {
                                on_reply(corr, data, size);
                              });
      }
    }
    if (status.ok() && tracing && probe_sent_s_ < 0 && mono_s() >= next_probe_s_) {
      // Sampled liveness probe: its round trip is pure reactor + handler
      // pool queueing, since the dispatcher's heartbeat is a map lookup.
      wire::HeartbeatRequest probe;
      probe.executor_id = execs_[probe_index_++ % execs_.size()].id;
      send(kProbeCorr, probe);
      probe_sent_s_ = mono_s();
    }
    if (status.ok()) status = flush();
    if (!status.ok()) {
      failure_ = status.error().str();
      return;
    }
  }
}

Status ExecutorFleet::read_available(falkon::net::TcpStream& stream,
                                     std::vector<std::uint8_t>& buffer,
                                     std::size_t& start) {
  if (start == buffer.size()) {
    buffer.clear();
    start = 0;
  } else if (start > buffer.size() / 2) {
    buffer.erase(buffer.begin(), buffer.begin() + static_cast<std::ptrdiff_t>(start));
    start = 0;
  }
  for (;;) {
    const std::size_t at = buffer.size();
    buffer.resize(at + kReadChunk);
    const ssize_t n = ::recv(stream.fd(), buffer.data() + at, kReadChunk, MSG_DONTWAIT);
    if (n > 0) {
      buffer.resize(at + static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < kReadChunk) return falkon::ok_status();
      continue;
    }
    buffer.resize(at);
    if (n == 0) return falkon::make_error(ErrorCode::kClosed, "dispatcher closed");
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return falkon::ok_status();
    }
    return io_error("recv");
  }
}

template <class Fn>
Status ExecutorFleet::drain_frames(std::vector<std::uint8_t>& buffer,
                                   std::size_t& start, Fn&& on_frame) {
  while (buffer.size() - start >= wire::kFrameHeaderBytes) {
    std::uint32_t length = 0;
    std::uint64_t corr = 0;
    std::memcpy(&length, buffer.data() + start, 4);
    std::memcpy(&corr, buffer.data() + start + 4, 8);
    if (length > wire::kMaxFrameBytes) {
      return falkon::make_error(ErrorCode::kProtocolError, "oversized frame");
    }
    if (buffer.size() - start < wire::kFrameHeaderBytes + length) break;
    on_frame(corr, buffer.data() + start + wire::kFrameHeaderBytes, length);
    start += wire::kFrameHeaderBytes + length;
  }
  return falkon::ok_status();
}

void ExecutorFleet::on_notify(const wire::Notify& notify) {
  ++counters_.notifies;
  const auto it = index_of_.find(notify.executor_id.value);
  if (it == index_of_.end()) {
    ++counters_.errors;
    return;
  }
  VExec& exec = execs_[it->second];
  if (exec.state == State::kIdle) {
    send_get_work(it->second);
  } else {
    exec.notified = true;  // consumed when the current drain runs dry
  }
}

void ExecutorFleet::on_reply(std::uint64_t corr, const std::uint8_t* data,
                             std::size_t size) {
  ++replies_handled_;
  const double now = mono_s();
  const bool tracing = tracing_.load(std::memory_order_relaxed);
  auto message = wire::decode_message(data, size);
  if (corr == kProbeCorr) {
    if (message.ok() && std::holds_alternative<wire::HeartbeatReply>(message.value())) {
      if (tracing) spans_.heartbeat_rtt_us.push_back((now - probe_sent_s_) * 1e6);
    } else {
      ++counters_.errors;
    }
    probe_sent_s_ = -1.0;
    next_probe_s_ = now + kProbeInterval_s;
    return;
  }
  if (corr == 0 || corr > execs_.size() || !message.ok()) {
    ++counters_.errors;
    return;
  }
  const std::size_t index = corr - 1;
  VExec& exec = execs_[index];
  const double rtt_us = (now - exec.sent_s) * 1e6;
  auto sample_tasks = [&] {
    ++counters_.bundles;
    counters_.task_bytes += size + wire::kFrameHeaderBytes;
    if (sampling_.load(std::memory_order_relaxed) &&
        samples_.task_bundles.size() < kMaxSamples) {
      samples_.task_bundles.emplace_back(data, data + size);
    }
  };
  if (auto* reply = std::get_if<wire::RegisterReply>(&message.value())) {
    exec.id = reply->executor_id;
  } else if (auto* work = std::get_if<wire::GetWorkReply>(&message.value())) {
    if (tracing) spans_.get_work_rtt_us.push_back(rtt_us);
    if (!work->tasks.empty()) {
      sample_tasks();
      run_bundle(index, work->tasks);
      return;
    }
    ++counters_.empty_get_work;
    if (exec.notified) {
      exec.notified = false;
      send_get_work(index);
    } else {
      exec.state = State::kIdle;
    }
  } else if (auto* bundle = std::get_if<wire::TaskBundle>(&message.value())) {
    if (tracing) spans_.deliver_rtt_us.push_back(rtt_us);
    if (bundle->bundle_seq != 0) exec.last_bundle_seq = bundle->bundle_seq;
    if (!bundle->tasks.empty()) {
      sample_tasks();
      run_bundle(index, bundle->tasks);
    } else {
      send_get_work(index);  // the runtime pulls again after an empty ack
    }
  } else {
    ++counters_.errors;
    exec.state = State::kIdle;
  }
}

void ExecutorFleet::send(std::uint64_t corr, const wire::Message& message) {
  append_frame(out_, writer_, corr, message);
}

void ExecutorFleet::send_get_work(std::size_t index) {
  VExec& exec = execs_[index];
  wire::GetWorkRequest request;
  request.executor_id = exec.id;
  request.max_tasks = workload_.adaptive ? wire::kAdaptiveBundle : 1;
  send(index + 1, request);
  exec.state = State::kGetWork;
  exec.sent_s = mono_s();
  ++counters_.get_work;
  ++counters_.rpcs;
}

void ExecutorFleet::run_bundle(std::size_t index,
                               const std::vector<falkon::TaskSpec>& tasks) {
  VExec& exec = execs_[index];
  wire::ResultBundle request;
  request.executor_id = exec.id;
  request.ack_seq = exec.last_bundle_seq;
  request.want_tasks = workload_.adaptive ? wire::kAdaptiveWant : 1;
  request.results.resize(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    // sleep-0: the run is the body check itself.
    if (!factory_.matches(tasks[i])) ++counters_.bad_bodies;
    falkon::TaskResult& result = request.results[i];
    result.task_id = tasks[i].id;
    result.executor_id = exec.id;
    result.exit_code = 0;
    result.state = falkon::TaskState::kCompleted;
    executed_.on_result(result);
  }
  counters_.tasks += tasks.size();
  send(index + 1, request);
  counters_.result_bytes += writer_.size() + wire::kFrameHeaderBytes;
  if (sampling_.load(std::memory_order_relaxed) &&
      samples_.result_bundles.size() < kMaxSamples) {
    samples_.result_bundles.push_back(writer_.data());
  }
  exec.state = State::kDeliver;
  exec.sent_s = mono_s();
  ++counters_.result_bundles;
  ++counters_.rpcs;
}

Status ExecutorFleet::flush() {
  if (out_.empty()) return falkon::ok_status();
  auto status = rpc_.write_all(out_.data(), out_.size());
  out_.clear();
  return status;
}

}  // namespace perfbench
