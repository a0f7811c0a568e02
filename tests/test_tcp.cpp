// End-to-end tests over real TCP on loopback: dispatcher server, remote
// executors (RPC pull + push notifications), and remote client. All servers
// bind port 0 (ephemeral), so the binary is safe under parallel ctest.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>

#include "common/clock.h"
#include "core/client.h"
#include "core/service_tcp.h"
#include "fault/fault.h"
#include "net/rpc.h"
#include "net/socket.h"
#include "obs/obs.h"
#include "wire/framing.h"

namespace falkon::core {
namespace {

std::vector<TaskSpec> sleep_tasks(int count) {
  std::vector<TaskSpec> tasks;
  for (int i = 1; i <= count; ++i) {
    tasks.push_back(make_sleep_task(TaskId{static_cast<std::uint64_t>(i)}, 0.0));
  }
  return tasks;
}

class TcpStackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dispatcher_ = std::make_unique<Dispatcher>(clock_, DispatcherConfig{});
    server_ = std::make_unique<TcpDispatcherServer>(*dispatcher_);
    ASSERT_TRUE(server_->start().ok());
  }

  void TearDown() override {
    executors_.clear();
    server_->stop();
  }

  void add_executor(ExecutorOptions options = {}) {
    auto harness = std::make_unique<TcpExecutorHarness>(
        clock_, "127.0.0.1", server_->rpc_port(), server_->push_port(),
        std::make_unique<NoopEngine>(), options);
    ASSERT_TRUE(harness->start().ok());
    executors_.push_back(std::move(harness));
  }

  RealClock clock_;
  std::unique_ptr<Dispatcher> dispatcher_;
  std::unique_ptr<TcpDispatcherServer> server_;
  std::vector<std::unique_ptr<TcpExecutorHarness>> executors_;
};

TEST_F(TcpStackTest, RemoteClientRoundtrip) {
  add_executor();
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port());
  ASSERT_TRUE(client.ok());

  auto session = FalkonSession::open(*client.value(), ClientId{1});
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(20), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  EXPECT_EQ(results.value().size(), 20u);
  for (const auto& result : results.value()) EXPECT_TRUE(result.success());
}

TEST_F(TcpStackTest, MultipleRemoteExecutors) {
  for (int i = 0; i < 4; ++i) add_executor();
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port());
  ASSERT_TRUE(client.ok());
  auto status = client.value()->status();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().registered_executors, 4u);

  auto session = FalkonSession::open(*client.value(), ClientId{1});
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(200), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  std::set<std::uint64_t> ids;
  for (const auto& result : results.value()) ids.insert(result.task_id.value);
  EXPECT_EQ(ids.size(), 200u);
}

TEST_F(TcpStackTest, WorkSubmittedBeforeExecutorArrives) {
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port());
  ASSERT_TRUE(client.ok());
  auto session = FalkonSession::open(*client.value(), ClientId{1});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->submit(sleep_tasks(10)).ok());

  // No executor yet: nothing completes.
  auto early = session.value()->wait(1, 0.1);
  EXPECT_FALSE(early.ok());

  add_executor();  // registration triggers notification pump
  auto results = session.value()->wait(10, 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  EXPECT_EQ(results.value().size(), 10u);
}

TEST_F(TcpStackTest, ExecutorIdleTimeoutDeregistersOverTcp) {
  ExecutorOptions options;
  options.idle_timeout_s = 0.05;
  add_executor(options);
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 200; ++i) {
    auto status = client.value()->status();
    ASSERT_TRUE(status.ok());
    if (status.value().registered_executors == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  auto status = client.value()->status();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().registered_executors, 0u);
}

TEST_F(TcpStackTest, ErrorsPropagateToRemoteClient) {
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port());
  ASSERT_TRUE(client.ok());
  auto bogus = client.value()->submit(InstanceId{999}, sleep_tasks(1));
  ASSERT_FALSE(bogus.ok());
  EXPECT_EQ(bogus.error().code, ErrorCode::kNotFound);
}

TEST_F(TcpStackTest, ClientNotificationsArriveOnResultDelivery) {
  add_executor();
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port());
  ASSERT_TRUE(client.ok());
  auto instance = client.value()->create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());

  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t last_ready = 0;
  TcpResultListener listener;
  ASSERT_TRUE(listener
                  .start("127.0.0.1", server_->push_port(), instance.value(),
                         [&](InstanceId, std::uint64_t ready) {
                           std::lock_guard lock(mu);
                           last_ready = std::max(last_ready, ready);
                           cv.notify_all();
                         })
                  .ok());
  // Let the subscription land before submitting.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  ASSERT_TRUE(client.value()->submit(instance.value(), sleep_tasks(5)).ok());
  {
    std::unique_lock lock(mu);
    cv.wait_for(lock, std::chrono::seconds(5), [&] { return last_ready > 0; });
    EXPECT_GT(last_ready, 0u);
  }
  // Notification-driven pick-up: results are already there, zero timeout.
  auto results = client.value()->wait_results(instance.value(), 10, 0.0);
  ASSERT_TRUE(results.ok());
  EXPECT_FALSE(results.value().empty());
  listener.stop();
}

TEST_F(TcpStackTest, PollingModeExecutorNeedsNoPushChannel) {
  // Firewall-bypass mode (paper section 6): executor makes only outbound
  // RPC calls — it never subscribes on the notification port.
  ExecutorOptions options;
  options.poll_interval_s = 0.01;
  add_executor(options);
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port());
  ASSERT_TRUE(client.ok());
  auto session = FalkonSession::open(*client.value(), ClientId{1});
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(30), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  EXPECT_EQ(results.value().size(), 30u);
}

TEST_F(TcpStackTest, PollingModeIdleTimeoutStillReleases) {
  ExecutorOptions options;
  options.poll_interval_s = 0.01;
  options.idle_timeout_s = 0.06;
  add_executor(options);
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 200; ++i) {
    auto status = client.value()->status();
    ASSERT_TRUE(status.ok());
    if (status.value().registered_executors == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  auto status = client.value()->status();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().registered_executors, 0u);
}

TEST_F(TcpStackTest, ServerStopSurvivesActiveExecutors) {
  add_executor();
  add_executor();
  // Tear-down order in TearDown() stops executors before the server; this
  // test instead stops the server first and expects no crash/hang.
  server_->stop();
  executors_.clear();
  SUCCEED();
}

// ---- wire-level bundle-path regressions ------------------------------
//
// These speak the protocol with a raw net::RpcClient instead of the
// harness, so they can act as misbehaving or down-level peers.

namespace {

/// Raw call that must produce a reply of type `Expected`.
template <class Expected>
Expected call_expect(net::RpcClient& rpc, const wire::Message& request) {
  auto reply = rpc.call(request);
  EXPECT_TRUE(reply.ok()) << reply.error().str();
  if (!reply.ok()) return Expected{};
  auto* payload = std::get_if<Expected>(&reply.value());
  EXPECT_NE(payload, nullptr)
      << "unexpected reply: " << wire::debug_summary(reply.value());
  if (payload == nullptr) return Expected{};
  return std::move(*payload);
}

}  // namespace

TEST(TcpBundleRegression, BundleSeqRetiredWhenExecutorCrashesMidBundle) {
  // An executor that takes a numbered TaskBundle and dies before echoing
  // the ack must not leak its bundle_seq: the failure detector's removal
  // path (ExecutorSink::on_removed -> release_executor) settles it, so
  // pending_bundles drains to zero and issued == retired.
  RealClock clock;
  obs::Obs obs{obs::ObsConfig{}};
  DispatcherConfig config;
  config.piggyback = true;
  config.heartbeat_timeout_s = 0.05;  // detector run manually below
  Dispatcher dispatcher(clock, config);
  TcpDispatcherServer server(dispatcher, &obs);
  ASSERT_TRUE(server.start().ok());

  auto raw = net::RpcClient::connect("127.0.0.1", server.rpc_port());
  ASSERT_TRUE(raw.ok());

  wire::RegisterRequest reg;
  reg.node_id = NodeId{1};
  reg.host = "crash-peer";
  const ExecutorId executor =
      call_expect<wire::RegisterReply>(raw.value(), reg).executor_id;
  ASSERT_NE(executor.value, 0u);

  const InstanceId instance =
      call_expect<wire::CreateInstanceReply>(
          raw.value(), wire::CreateInstanceRequest{ClientId{1}})
          .instance_id;
  wire::SubmitRequest submit;
  submit.instance_id = instance;
  submit.tasks = sleep_tasks(4);
  call_expect<wire::SubmitReply>(raw.value(), submit);

  // Pull a numbered bundle (empty delivery, want-tasks piggyback) and then
  // crash without ever acknowledging it.
  wire::ResultBundle pull;
  pull.executor_id = executor;
  pull.want_tasks = 4;
  const wire::TaskBundle bundle =
      call_expect<wire::TaskBundle>(raw.value(), pull);
  ASSERT_FALSE(bundle.tasks.empty());
  EXPECT_NE(bundle.bundle_seq, 0u);

  obs::Registry& reg_metrics = obs.registry();
  EXPECT_EQ(reg_metrics.gauge("falkon.net.rpc.pending_bundles").value(), 1.0);
  EXPECT_EQ(reg_metrics.counter("falkon.net.rpc.bundles_issued").value(), 1u);
  EXPECT_EQ(reg_metrics.counter("falkon.net.rpc.bundles_retired").value(), 0u);

  raw.value().close();  // crash: no ack, no deregister
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    dispatcher.check_liveness();
    if (dispatcher.status().registered_executors == 0) break;
  }
  EXPECT_EQ(dispatcher.status().registered_executors, 0u);

  // Removal settled the outstanding seq; its tasks are back in the queue.
  EXPECT_EQ(reg_metrics.gauge("falkon.net.rpc.pending_bundles").value(), 0.0);
  EXPECT_EQ(reg_metrics.counter("falkon.net.rpc.bundles_retired").value(),
            reg_metrics.counter("falkon.net.rpc.bundles_issued").value());
  EXPECT_EQ(dispatcher.status().queued, 4u);

  server.stop();
  dispatcher.shutdown();
}

TEST(TcpBundleRegression, AdaptiveSentinelsServeV0NonBundlingPeer) {
  // A down-level executor that never learned TaskBundle/ResultBundle can
  // still request adaptive sizing: max_tasks = kAdaptiveBundle on a legacy
  // GetWorkRequest and want_tasks = kAdaptiveWant on a legacy ResultRequest
  // must yield work, and the legacy exchange must never issue bundle_seqs.
  RealClock clock;
  obs::Obs obs{obs::ObsConfig{}};
  DispatcherConfig config;
  config.piggyback = true;
  Dispatcher dispatcher(clock, config);
  TcpDispatcherServer server(dispatcher, &obs);
  ASSERT_TRUE(server.start().ok());

  auto raw = net::RpcClient::connect("127.0.0.1", server.rpc_port());
  ASSERT_TRUE(raw.ok());

  wire::RegisterRequest reg;
  reg.node_id = NodeId{7};
  reg.host = "v0-peer";
  const ExecutorId executor =
      call_expect<wire::RegisterReply>(raw.value(), reg).executor_id;

  const InstanceId instance =
      call_expect<wire::CreateInstanceReply>(
          raw.value(), wire::CreateInstanceRequest{ClientId{1}})
          .instance_id;
  constexpr int kTasks = 12;
  wire::SubmitRequest submit;
  submit.instance_id = instance;
  submit.tasks = sleep_tasks(kTasks);
  call_expect<wire::SubmitReply>(raw.value(), submit);

  wire::GetWorkRequest get_work;
  get_work.executor_id = executor;
  get_work.max_tasks = wire::kAdaptiveBundle;  // sentinel, not literal zero
  std::vector<TaskSpec> pending =
      call_expect<wire::GetWorkReply>(raw.value(), get_work).tasks;
  ASSERT_FALSE(pending.empty());

  std::set<std::uint64_t> done;
  while (!pending.empty()) {
    wire::ResultRequest deliver;
    deliver.executor_id = executor;
    deliver.want_tasks = wire::kAdaptiveWant;
    for (const TaskSpec& spec : pending) {
      TaskResult result;
      result.task_id = spec.id;
      result.executor_id = executor;
      deliver.results.push_back(std::move(result));
      done.insert(spec.id.value);
    }
    const wire::ResultReply reply =
        call_expect<wire::ResultReply>(raw.value(), deliver);
    EXPECT_EQ(reply.acknowledged, deliver.results.size());
    pending = reply.piggyback_tasks;
    if (pending.empty() && done.size() < static_cast<std::size_t>(kTasks)) {
      // Adaptive piggyback may momentarily come back empty; pull again.
      pending = call_expect<wire::GetWorkReply>(raw.value(), get_work).tasks;
    }
  }
  EXPECT_EQ(done.size(), static_cast<std::size_t>(kTasks));
  EXPECT_EQ(dispatcher.status().completed, static_cast<std::uint64_t>(kTasks));

  // The v0 exchange carries no sequence numbers, so the bundle ledger must
  // stay untouched.
  obs::Registry& reg_metrics = obs.registry();
  EXPECT_EQ(reg_metrics.counter("falkon.net.rpc.bundles_issued").value(), 0u);
  EXPECT_EQ(reg_metrics.gauge("falkon.net.rpc.pending_bundles").value(), 0.0);

  wire::WaitResultsRequest wait;
  wait.instance_id = instance;
  wait.max_results = 64;
  wait.timeout_s = 5.0;
  const wire::WaitResultsReply results =
      call_expect<wire::WaitResultsReply>(raw.value(), wait);
  EXPECT_EQ(results.results.size(), static_cast<std::size_t>(kTasks));

  server.stop();
  dispatcher.shutdown();
}

// ---- push-mode result streaming ---------------------------------------

TEST_F(TcpStackTest, StreamingClientReceivesResultsExactlyOnce) {
  add_executor();
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port(),
                                             server_->push_port());
  ASSERT_TRUE(client.ok());
  auto instance = client.value()->create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());
  // The third connect argument subscribed the instance on the push channel.
  EXPECT_TRUE(client.value()->streaming(instance.value()));

  ASSERT_TRUE(client.value()->submit(instance.value(), sleep_tasks(50)).ok());
  std::set<std::uint64_t> ids;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ids.size() < 50 && std::chrono::steady_clock::now() < deadline) {
    auto batch = client.value()->wait_results(instance.value(), 64, 0.5);
    ASSERT_TRUE(batch.ok()) << batch.error().str();
    for (const auto& result : batch.value()) {
      EXPECT_TRUE(ids.insert(result.task_id.value).second)
          << "duplicate task " << result.task_id.value;
    }
  }
  EXPECT_EQ(ids.size(), 50u);
  EXPECT_TRUE(client.value()->streaming(instance.value()));
  EXPECT_TRUE(client.value()->destroy_instance(instance.value()).ok());
}

TEST_F(TcpStackTest, StreamingSessionRunCompletes) {
  for (int i = 0; i < 2; ++i) add_executor();
  auto client = TcpDispatcherClient::connect("127.0.0.1", server_->rpc_port(),
                                             server_->push_port());
  ASSERT_TRUE(client.ok());
  auto session = FalkonSession::open(*client.value(), ClientId{1});
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(200), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  std::set<std::uint64_t> ids;
  for (const auto& result : results.value()) ids.insert(result.task_id.value);
  EXPECT_EQ(ids.size(), 200u);
}

TEST(TcpStreamingFault, DroppedPushFramesFallBackToPolling) {
  // Every frame leaving the push server silently vanishes (kDrop returns
  // ok to the dispatcher, so its cursor advances as if streaming worked).
  // Results must still arrive exactly once through the wait_results
  // firewall fallback: un-acked results never leave the mailbox.
  RealClock clock;
  fault::FaultPlan plan;
  plan.with(fault::Site::kPushFrame, fault::Action::kDrop, 1.0);
  fault::FaultInjector fault(plan);
  Dispatcher dispatcher(clock, DispatcherConfig{});
  TcpDispatcherServer server(dispatcher);
  ASSERT_TRUE(server.start(0, 0, &fault).ok());
  // Polling-mode executor: the lossy push channel must only starve the
  // client's stream, not the executor's work notifications.
  ExecutorOptions options;
  options.poll_interval_s = 0.01;
  TcpExecutorHarness harness(clock, "127.0.0.1", server.rpc_port(),
                             server.push_port(),
                             std::make_unique<NoopEngine>(), options);
  ASSERT_TRUE(harness.start().ok());

  auto client = TcpDispatcherClient::connect("127.0.0.1", server.rpc_port(),
                                             server.push_port());
  ASSERT_TRUE(client.ok());
  auto instance = client.value()->create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(client.value()->submit(instance.value(), sleep_tasks(20)).ok());

  std::set<std::uint64_t> ids;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ids.size() < 20 && std::chrono::steady_clock::now() < deadline) {
    auto batch = client.value()->wait_results(instance.value(), 64, 0.2);
    ASSERT_TRUE(batch.ok()) << batch.error().str();
    for (const auto& result : batch.value()) {
      EXPECT_TRUE(ids.insert(result.task_id.value).second)
          << "duplicate task " << result.task_id.value;
    }
  }
  EXPECT_EQ(ids.size(), 20u);
  EXPECT_GT(fault.stats(fault::Site::kPushFrame).injected, 0u);

  harness.stop();
  server.stop();
  dispatcher.shutdown();
}

// ---- many executor ids on one connection ------------------------------

/// Non-blocking frame reader for a raw socket: fill() takes whatever bytes
/// are ready, drain() hands out every complete frame.
struct FrameInbox {
  std::vector<std::uint8_t> buf;

  /// false once the peer closed the connection or the read failed.
  bool fill(int fd) {
    std::uint8_t chunk[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        buf.insert(buf.end(), chunk, chunk + n);
        continue;
      }
      if (n == 0) return false;
      return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    }
  }

  template <class Fn>
  void drain(Fn&& on_frame) {
    std::size_t at = 0;
    while (buf.size() - at >= wire::kFrameHeaderBytes) {
      std::uint32_t len = 0;
      std::uint64_t corr = 0;
      for (int b = 0; b < 4; ++b) {
        len |= static_cast<std::uint32_t>(buf[at + b]) << (8 * b);
      }
      for (int b = 0; b < 8; ++b) {
        corr |= static_cast<std::uint64_t>(buf[at + 4 + b]) << (8 * b);
      }
      if (buf.size() - at - wire::kFrameHeaderBytes < len) break;
      on_frame(corr, wire::decode_message(
                         buf.data() + at + wire::kFrameHeaderBytes, len));
      at += wire::kFrameHeaderBytes + len;
    }
    buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(at));
  }
};

TEST(TcpSharedConnection, ManyExecutorIdsShareOneRpcAndOnePushConnection) {
  // A load generator multiplexes a fleet of executors over one pipelined
  // RPC connection and one push connection: GetWork, ResultBundle and
  // Heartbeat for ~32 executor ids interleave on the same socket, and
  // every id subscribes on the same push socket. The server must serve
  // that exchange without ever cutting either connection, and every task
  // must run exactly once.
  constexpr std::size_t kExecutors = 32;
  constexpr int kTasks = 20000;
  constexpr std::uint64_t kHeartbeatCorr = 1ULL << 62;
  RealClock clock;
  Dispatcher dispatcher(clock, DispatcherConfig{});
  TcpDispatcherServer server(dispatcher);
  ASSERT_TRUE(server.start().ok());
  auto rpc = net::TcpStream::connect("127.0.0.1", server.rpc_port());
  ASSERT_TRUE(rpc.ok());
  auto push = net::TcpStream::connect("127.0.0.1", server.push_port());
  ASSERT_TRUE(push.ok());

  std::vector<std::uint8_t> out;
  auto send = [&](std::uint64_t corr, const wire::Message& message) {
    const auto payload = wire::encode_message(message);
    const std::size_t at = out.size();
    out.resize(at + wire::kFrameHeaderBytes);
    wire::put_frame_header(out.data() + at, corr,
                           static_cast<std::uint32_t>(payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
  };
  auto flush_to = [&](net::TcpStream& stream) {
    const bool ok = out.empty() || stream.write_all(out.data(), out.size()).ok();
    out.clear();
    return ok;
  };

  // Executor i uses correlation id i + 1 for its one outstanding request.
  enum class State { kIdle, kBusy };
  struct Exec {
    ExecutorId id;
    State state{State::kBusy};
    bool notified{false};
    std::uint64_t last_bundle_seq{0};
  };
  std::vector<Exec> execs(kExecutors);
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  std::unordered_map<std::uint64_t, int> executed;
  int errors = 0;
  int heartbeats = 0;
  bool heartbeat_outstanding = false;

  auto get_work = [&](std::size_t i) {
    wire::GetWorkRequest request;
    request.executor_id = execs[i].id;
    request.max_tasks = wire::kAdaptiveBundle;
    send(i + 1, request);
    execs[i].state = State::kBusy;
  };
  auto run_bundle = [&](std::size_t i, const std::vector<TaskSpec>& tasks) {
    wire::ResultBundle request;
    request.executor_id = execs[i].id;
    request.ack_seq = execs[i].last_bundle_seq;
    request.want_tasks = wire::kAdaptiveWant;
    for (const auto& task : tasks) {
      ++executed[task.id.value];
      TaskResult result;
      result.task_id = task.id;
      result.executor_id = execs[i].id;
      result.state = TaskState::kCompleted;
      request.results.push_back(std::move(result));
    }
    send(i + 1, request);
    execs[i].state = State::kBusy;
  };
  auto on_reply = [&](std::uint64_t corr, Result<wire::Message> message) {
    if (!message.ok()) {
      ++errors;
      return;
    }
    if (corr == kHeartbeatCorr) {
      if (std::holds_alternative<wire::HeartbeatReply>(message.value())) {
        ++heartbeats;
      } else {
        ++errors;
      }
      heartbeat_outstanding = false;
      return;
    }
    if (corr == 0 || corr > kExecutors) {
      ++errors;
      return;
    }
    const std::size_t i = corr - 1;
    Exec& exec = execs[i];
    if (const auto* reply = std::get_if<wire::RegisterReply>(&message.value())) {
      exec.id = reply->executor_id;
    } else if (const auto* work =
                   std::get_if<wire::GetWorkReply>(&message.value())) {
      if (!work->tasks.empty()) {
        run_bundle(i, work->tasks);
      } else if (exec.notified) {
        exec.notified = false;
        get_work(i);
      } else {
        exec.state = State::kIdle;
      }
    } else if (const auto* bundle =
                   std::get_if<wire::TaskBundle>(&message.value())) {
      if (bundle->bundle_seq != 0) exec.last_bundle_seq = bundle->bundle_seq;
      if (!bundle->tasks.empty()) {
        run_bundle(i, bundle->tasks);
      } else {
        get_work(i);
      }
    } else {
      ++errors;
      exec.state = State::kIdle;
    }
  };

  // Register the whole fleet, pipelined.
  FrameInbox rpc_in;
  FrameInbox push_in;
  for (std::size_t i = 0; i < kExecutors; ++i) {
    wire::RegisterRequest request;
    request.node_id = NodeId{i + 1};
    request.host = "fleet";
    send(i + 1, request);
  }
  ASSERT_TRUE(flush_to(rpc.value()));
  const auto setup_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::size_t registered = 0;
  while (registered < kExecutors &&
         std::chrono::steady_clock::now() < setup_deadline) {
    pollfd fd{rpc.value().fd(), POLLIN, 0};
    (void)::poll(&fd, 1, 100);
    ASSERT_TRUE(rpc_in.fill(rpc.value().fd()));
    rpc_in.drain(on_reply);
    registered = 0;
    for (const auto& exec : execs) registered += exec.id.valid() ? 1 : 0;
  }
  ASSERT_EQ(registered, kExecutors);
  for (std::size_t i = 0; i < kExecutors; ++i) {
    index_of[execs[i].id.value] = i;
    send(0, wire::Notify{execs[i].id, 0});  // subscribe on the push socket
  }
  ASSERT_TRUE(flush_to(push.value()));
  for (std::size_t i = 0; i < kExecutors; ++i) get_work(i);
  ASSERT_TRUE(flush_to(rpc.value()));

  // The client runs on its own connections, in its own thread.
  std::atomic<bool> client_done{false};
  Result<std::vector<TaskResult>> results =
      make_error(ErrorCode::kInternal, "client never ran");
  std::thread client_thread([&] {
    auto client = TcpDispatcherClient::connect(
        "127.0.0.1", server.rpc_port(), server.push_port());
    if (client.ok()) {
      SessionOptions options;
      options.bundle_size = 5000;
      auto session = FalkonSession::open(*client.value(), ClientId{1}, options);
      if (session.ok()) results = session.value()->run(sleep_tasks(kTasks), 30.0);
    }
    client_done.store(true);
  });

  bool cut = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  auto last_heartbeat = std::chrono::steady_clock::now();
  std::size_t heartbeat_index = 0;
  while (!client_done.load() && std::chrono::steady_clock::now() < deadline) {
    pollfd fds[2] = {{rpc.value().fd(), POLLIN, 0},
                     {push.value().fd(), POLLIN, 0}};
    const int ready = ::poll(fds, 2, 20);
    if (fds[1].revents != 0) {
      if (!push_in.fill(push.value().fd())) {
        cut = true;
        break;
      }
      push_in.drain([&](std::uint64_t, Result<wire::Message> message) {
        const auto* notify =
            message.ok() ? std::get_if<wire::Notify>(&message.value()) : nullptr;
        const auto it =
            notify != nullptr ? index_of.find(notify->executor_id.value)
                              : index_of.end();
        if (it == index_of.end()) {
          ++errors;
          return;
        }
        if (execs[it->second].state == State::kIdle) {
          get_work(it->second);
        } else {
          execs[it->second].notified = true;
        }
      });
    }
    if (fds[0].revents != 0) {
      if (!rpc_in.fill(rpc.value().fd())) {
        cut = true;
        break;
      }
      rpc_in.drain(on_reply);
    }
    const auto now = std::chrono::steady_clock::now();
    if (!heartbeat_outstanding && now - last_heartbeat > std::chrono::milliseconds(2)) {
      wire::HeartbeatRequest beat;
      beat.executor_id = execs[heartbeat_index++ % kExecutors].id;
      send(kHeartbeatCorr, beat);
      heartbeat_outstanding = true;
      last_heartbeat = now;
    }
    if (ready == 0) {
      // Quiet socket: idle executors poll, so a notification that raced
      // its subscription cannot strand queued work.
      for (std::size_t i = 0; i < kExecutors; ++i) {
        if (execs[i].state == State::kIdle) get_work(i);
      }
    }
    if (!flush_to(rpc.value())) {
      cut = true;
      break;
    }
  }
  // A severed fleet strands the client; stopping the server releases it.
  if (!client_done.load()) server.stop();
  client_thread.join();

  EXPECT_FALSE(cut) << "the server cut a connection shared by many executor ids";
  ASSERT_TRUE(results.ok()) << results.error().str();
  std::set<std::uint64_t> delivered;
  for (const auto& result : results.value()) {
    EXPECT_TRUE(delivered.insert(result.task_id.value).second)
        << "task " << result.task_id.value << " delivered twice";
  }
  EXPECT_EQ(delivered.size(), static_cast<std::size_t>(kTasks));
  EXPECT_EQ(executed.size(), static_cast<std::size_t>(kTasks));
  for (const auto& [task, runs] : executed) {
    ASSERT_EQ(runs, 1) << "task " << task << " ran " << runs << " times";
  }
  EXPECT_EQ(errors, 0);
  EXPECT_GT(heartbeats, 0);

  server.stop();
  dispatcher.shutdown();
}

// ---- client reconnect and resubscribe ---------------------------------

TEST(TcpClientRedial, OneAttemptClientRedialsAfterTransportFailure) {
  // The server cuts the connection instead of sending the second reply.
  // That call fails; the next one dials a fresh connection and succeeds.
  RealClock clock;
  fault::FaultPlan plan;
  plan.at(fault::Site::kRpcReply, fault::Action::kDrop, 2);
  fault::FaultInjector fault(plan);
  Dispatcher dispatcher(clock, DispatcherConfig{});
  TcpDispatcherServer server(dispatcher);
  ASSERT_TRUE(server.start(0, 0, &fault).ok());

  auto client = TcpDispatcherClient::connect("127.0.0.1", server.rpc_port());
  ASSERT_TRUE(client.ok());
  auto instance = client.value()->create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok()) << instance.error().str();
  // The submit reaches the dispatcher; only its reply is lost.
  EXPECT_FALSE(client.value()->submit(instance.value(), sleep_tasks(10)).ok());
  auto status = client.value()->status();
  ASSERT_TRUE(status.ok()) << status.error().str();
  EXPECT_EQ(status.value().submitted, 10u);
  EXPECT_EQ(client.value()->reconnects(), 1u);

  // One-attempt clients stamp no submit_seq: a replacement client keeps
  // submitting to the same instance without being acked as a duplicate.
  auto replacement =
      TcpDispatcherClient::connect("127.0.0.1", server.rpc_port());
  ASSERT_TRUE(replacement.ok());
  auto accepted =
      replacement.value()->submit(instance.value(), sleep_tasks(10));
  ASSERT_TRUE(accepted.ok()) << accepted.error().str();
  EXPECT_EQ(accepted.value(), 10u);
  status = client.value()->status();
  ASSERT_TRUE(status.ok()) << status.error().str();
  EXPECT_EQ(status.value().submitted, 20u);

  server.stop();
  dispatcher.shutdown();
}

TEST(TcpStreamingResume, ClientResubscribesAfterLosingPushConnection) {
  // A second subscriber for the instance's key makes the push server close
  // the client's push connection. The client must notice through its
  // quiet-timeout poll, resubscribe, and stream again.
  RealClock clock;
  Dispatcher dispatcher(clock, DispatcherConfig{});
  TcpDispatcherServer server(dispatcher);
  ASSERT_TRUE(server.start().ok());
  TcpExecutorHarness harness(clock, "127.0.0.1", server.rpc_port(),
                             server.push_port(),
                             std::make_unique<NoopEngine>(), ExecutorOptions{});
  ASSERT_TRUE(harness.start().ok());
  auto client = TcpDispatcherClient::connect("127.0.0.1", server.rpc_port(),
                                             server.push_port());
  ASSERT_TRUE(client.ok());
  auto instance = client.value()->create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(client.value()->streaming(instance.value()));

  std::set<std::uint64_t> ids;
  std::uint64_t next_id = 1;
  // Submits `count` tasks, then waits until all arrive; returns the
  // longest single wait in seconds.
  const auto round = [&](int count, double timeout_s) {
    std::vector<TaskSpec> tasks;
    for (int i = 0; i < count; ++i) {
      tasks.push_back(make_sleep_task(TaskId{next_id++}, 0.0));
    }
    EXPECT_TRUE(client.value()->submit(instance.value(), tasks).ok());
    double longest = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (ids.size() + 1 < next_id &&
           std::chrono::steady_clock::now() < deadline) {
      const auto t0 = std::chrono::steady_clock::now();
      auto batch = client.value()->wait_results(instance.value(), 64,
                                                timeout_s);
      longest = std::max(longest, std::chrono::duration<double>(
                                      std::chrono::steady_clock::now() - t0)
                                      .count());
      EXPECT_TRUE(batch.ok()) << batch.error().str();
      if (!batch.ok()) break;
      for (const auto& result : batch.value()) {
        EXPECT_TRUE(ids.insert(result.task_id.value).second)
            << "duplicate task " << result.task_id.value;
      }
    }
    EXPECT_EQ(ids.size() + 1, next_id);
    return longest;
  };
  EXPECT_LT(round(20, 5.0), 2.5);

  // Take the instance's key: the server drops the client's connection and
  // pushes the next results here, where nobody acknowledges them.
  auto thief = net::TcpStream::connect("127.0.0.1", server.push_port());
  ASSERT_TRUE(thief.ok());
  wire::Notify subscribe;
  subscribe.executor_id = ExecutorId{kClientKeyBase + instance.value().value};
  ASSERT_TRUE(
      wire::write_frame(thief.value(), wire::encode_message(subscribe)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // This round sits out one quiet timeout, then polls and resubscribes.
  (void)round(20, 0.5);
  EXPECT_TRUE(client.value()->streaming(instance.value()));
  // The round's results were first pushed to the thief.
  FrameInbox inbox;
  int stolen = 0;
  pollfd readable{thief.value().fd(), POLLIN, 0};
  while (stolen == 0 && ::poll(&readable, 1, 2000) > 0) {
    const bool open = inbox.fill(thief.value().fd());
    inbox.drain([&](std::uint64_t, Result<wire::Message> message) {
      if (message.ok() &&
          std::holds_alternative<wire::ResultStream>(message.value())) {
        ++stolen;
      }
    });
    if (!open) break;
  }
  EXPECT_GT(stolen, 0);
  // Streaming again: no wait comes near its timeout.
  EXPECT_LT(round(20, 5.0), 2.5);
  EXPECT_LT(round(20, 5.0), 2.5);

  harness.stop();
  server.stop();
  dispatcher.shutdown();
}

TEST(TcpStreamingConcurrency, OpenLoopSubmitsWhileAnotherThreadDrains) {
  // The open-loop shape: one thread submits one task at a time while
  // another drains a streaming wait_results. Neither blocks the other, and
  // every task arrives exactly once.
  constexpr std::uint64_t kTasks = 5000;
  RealClock clock;
  Dispatcher dispatcher(clock, DispatcherConfig{});
  TcpDispatcherServer server(dispatcher);
  ASSERT_TRUE(server.start().ok());
  std::vector<std::unique_ptr<TcpExecutorHarness>> fleet;
  for (int i = 0; i < 4; ++i) {
    fleet.push_back(std::make_unique<TcpExecutorHarness>(
        clock, "127.0.0.1", server.rpc_port(), server.push_port(),
        std::make_unique<NoopEngine>(), ExecutorOptions{}));
    ASSERT_TRUE(fleet.back()->start().ok());
  }
  auto client = TcpDispatcherClient::connect("127.0.0.1", server.rpc_port(),
                                             server.push_port());
  ASSERT_TRUE(client.ok());
  auto instance = client.value()->create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(client.value()->streaming(instance.value()));

  std::atomic<std::uint64_t> submit_failures{0};
  std::thread submitter([&] {
    for (std::uint64_t id = 1; id <= kTasks; ++id) {
      auto accepted = client.value()->submit(
          instance.value(), {make_sleep_task(TaskId{id}, 0.0)});
      if (!accepted.ok() || accepted.value() != 1) submit_failures += 1;
    }
  });
  std::set<std::uint64_t> ids;
  std::uint64_t duplicates = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (ids.size() < kTasks && std::chrono::steady_clock::now() < deadline) {
    auto batch = client.value()->wait_results(instance.value(), 1024, 0.5);
    EXPECT_TRUE(batch.ok()) << batch.error().str();
    if (!batch.ok()) break;
    for (const auto& result : batch.value()) {
      if (!ids.insert(result.task_id.value).second) ++duplicates;
    }
  }
  submitter.join();
  EXPECT_EQ(submit_failures.load(), 0u);
  EXPECT_EQ(duplicates, 0u);
  EXPECT_EQ(ids.size(), kTasks);
  EXPECT_EQ(*ids.begin(), 1u);
  EXPECT_EQ(*ids.rbegin(), kTasks);

  fleet.clear();
  server.stop();
  dispatcher.shutdown();
}

}  // namespace
}  // namespace falkon::core
