// TCP deployment glue.
//
// TcpDispatcherServer exposes a Dispatcher over two ports, mirroring the
// original Falkon's GT4-WS-container-plus-TCP-notification split (section
// 3.3): an RPC port for the WS-style operations (submit, get-work, deliver,
// status, ...) and a push port for the custom notification protocol.
// TcpExecutorHarness runs an executor against a remote dispatcher, and
// TcpDispatcherClient is the client-side stub.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/client.h"
#include "core/dispatcher.h"
#include "core/executor.h"
#include "core/task_engine.h"
#include "net/rpc.h"

namespace falkon::core {

/// Key namespace for client subscriptions on the shared notification
/// channel (executors subscribe with their ExecutorId; clients with
/// kClientKeyBase + InstanceId).
inline constexpr std::uint64_t kClientKeyBase = 1ULL << 62;

class TcpDispatcherServer {
 public:
  /// `obs` (optional) receives RPC/push counters: falkon.net.rpc.requests,
  /// falkon.net.rpc.errors, falkon.net.push.notifications. Both ports are
  /// served by one reactor loop.
  ///
  /// The third parameter is ignored. It is vestigial — the reactor once
  /// took a loop count here — and is kept only so the perfbench host,
  /// which passes 1, still compiles; the next change to perfbench drops
  /// the argument and this parameter with it.
  explicit TcpDispatcherServer(Dispatcher& dispatcher,
                               obs::Obs* obs = nullptr,
                               int /*ignored*/ = 0);
  ~TcpDispatcherServer();

  TcpDispatcherServer(const TcpDispatcherServer&) = delete;
  TcpDispatcherServer& operator=(const TcpDispatcherServer&) = delete;

  /// `fault` (optional, test-only) is handed to both channels: reply-frame
  /// faults on the RPC port, push-frame faults on the notification port.
  Status start(std::uint16_t rpc_port = 0, std::uint16_t push_port = 0,
               fault::FaultInjector* fault = nullptr);
  void stop();

  [[nodiscard]] std::uint16_t rpc_port() const { return rpc_.port(); }
  [[nodiscard]] std::uint16_t push_port() const { return push_.port(); }

  /// Serve ReplFetch/ReplAck from this source (typically the dispatcher's
  /// ha::Journal), enabling a warm standby to tail the log over the RPC
  /// port. nullptr (the default) answers ReplFetch with kUnavailable.
  /// The source must outlive the server or be cleared first.
  void set_replication_source(ReplicationSource* source) {
    replication_.store(source, std::memory_order_release);
  }

  /// Fence this server to the dispatcher's promotion epoch (docs/HA.md):
  /// epoch-stamped submits and repl fetches that disagree with it are
  /// rejected, and every SubmitReply/RegisterReply/StatusReply advertises
  /// it so clients and executors learn the new epoch on reconnect.
  /// 0 (the default) disables fencing for pre-HA deployments.
  void set_epoch(std::uint64_t epoch) {
    epoch_.store(epoch, std::memory_order_release);
  }
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

 private:
  /// ExecutorSink that writes Notify frames on the notification channel.
  /// on_removed ties transport cleanup to the dispatcher's removal paths:
  /// without it, an executor evicted by the failure detector (no orderly
  /// DeregisterRequest) would leak its push subscription and its unretired
  /// bundle_seq entry — and `falkon.net.rpc.pending_bundles` would never
  /// drain to zero.
  struct PushSink final : ExecutorSink {
    PushSink(TcpDispatcherServer& server, obs::Counter* pushes)
        : server(server), pushes(pushes) {}
    void notify(ExecutorId id, std::uint64_t resource_key) override {
      wire::Notify message;
      message.executor_id = id;
      message.resource_key = resource_key;
      if (pushes) pushes->inc();
      (void)server.push_.push(id.value, message);
    }
    void on_removed(ExecutorId id) override {
      server.release_executor(id.value);
    }
    TcpDispatcherServer& server;
    obs::Counter* pushes;
  };

  /// ClientSink that writes ClientNotify frames {8} on the notification
  /// channel for subscribed clients (unsubscribed clients just poll).
  /// deliver() is the push-mode result stream (docs/PROTOCOL.md): a drained
  /// mailbox batch rides the same channel as a ResultStream frame, keyed by
  /// the instance's subscription. false (no subscriber) drops the instance
  /// back to notify+poll; a frame lost in flight after a true return is
  /// recovered by the SubscribeResults ack protocol, never by the sink.
  struct ClientPushSink final : ClientSink {
    explicit ClientPushSink(net::PushServer& push) : push(push) {}
    void notify(InstanceId instance, std::uint64_t results_ready) override {
      wire::ClientNotify message;
      message.instance_id = instance;
      message.completed = results_ready;
      (void)push.push(kClientKeyBase + instance.value, message);
    }
    bool deliver(InstanceId instance, std::uint64_t seq,
                 const std::vector<TaskResult>& results) override {
      wire::ResultStream message;
      message.instance_id = instance;
      message.seq = seq;
      message.results = results;
      return push.push(kClientKeyBase + instance.value, message).ok();
    }
    net::PushServer& push;
  };

  [[nodiscard]] wire::Message handle(const wire::Message& request);
  [[nodiscard]] wire::Message dispatch(const wire::Message& request);

  /// Drop all per-executor transport state: push subscription plus any
  /// unretired bundle_seq (counted as retired — the dispatcher has already
  /// requeued the bundle's tasks, so the sequence number is settled).
  void release_executor(std::uint64_t executor_value);

  Dispatcher& dispatcher_;
  obs::Obs* obs_{nullptr};
  std::atomic<ReplicationSource*> replication_{nullptr};
  std::atomic<std::uint64_t> epoch_{0};
  /// One event loop shared by both channels: every executor costs two
  /// reactor-owned connections, zero threads. Declared before the servers
  /// so it outlives their stop() sequences.
  net::Reactor reactor_;
  net::RpcServer rpc_;
  net::PushServer push_;
  /// Recovery sweep rides the reactor's timer wheel instead of the
  /// dispatcher's dedicated sweeper thread (0 = sweeping disabled).
  net::TimerId sweep_timer_{0};
  bool sweeper_adopted_{false};
  /// Set by a fully-successful start(); stop() is a no-op otherwise (and
  /// after the first stop), so destroying a stopped server never touches
  /// the dispatcher reference again.
  bool started_{false};
  std::shared_ptr<PushSink> sink_;
  std::shared_ptr<ClientPushSink> client_sink_;
  obs::Counter* m_requests_{nullptr};
  obs::Counter* m_errors_{nullptr};
  obs::Counter* m_pushes_{nullptr};
  obs::Gauge* m_pending_bundles_{nullptr};
  /// Bundle-seq lifecycle counters: issued on every numbered (non-empty)
  /// TaskBundle, retired when the seq is acked, superseded by a newer seq,
  /// or settled by executor removal. At quiesce issued == retired — the
  /// testkit invariant checker asserts exactly this.
  obs::Counter* m_bundles_issued_{nullptr};
  obs::Counter* m_bundles_retired_{nullptr};

  /// Batched acknowledgements (section 3.4): every non-empty TaskBundle
  /// gets a sequence number; the executor acks the whole bundle by echoing
  /// it in its next ResultBundle.ack_seq instead of per-task acks.
  std::atomic<std::uint64_t> bundle_seq_{0};
  std::mutex bundles_mu_;
  /// executor id -> last bundle_seq sent and not yet echoed back.
  std::unordered_map<std::uint64_t, std::uint64_t> pending_bundles_;
};

/// Client-side subscription to result notifications {8}: connects to the
/// dispatcher's notification port and invokes the callback whenever new
/// results are ready for the instance — so clients need not poll tightly.
class TcpResultListener {
 public:
  using Callback = std::function<void(InstanceId, std::uint64_t results_ready)>;

  Status start(const std::string& host, std::uint16_t push_port,
               InstanceId instance, Callback callback);
  void stop();

 private:
  net::PushReceiver receiver_;
};

/// One executor connected to a remote dispatcher over TCP.
class TcpExecutorHarness {
 public:
  TcpExecutorHarness(Clock& clock, std::string host, std::uint16_t rpc_port,
                     std::uint16_t push_port, std::unique_ptr<TaskEngine> engine,
                     ExecutorOptions options);
  ~TcpExecutorHarness();

  TcpExecutorHarness(const TcpExecutorHarness&) = delete;
  TcpExecutorHarness& operator=(const TcpExecutorHarness&) = delete;

  /// Connects, registers (over RPC) and subscribes for notifications.
  Status start();
  void stop();

  [[nodiscard]] ExecutorRuntime& runtime() { return *runtime_; }
  /// Dispatcher epoch learned at the last (re-)registration.
  [[nodiscard]] std::uint64_t dispatcher_epoch() const { return link_.epoch(); }

 private:
  class Link final : public DispatcherLink {
   public:
    /// `fault` (optional) makes every (re)connect and request pass through
    /// the injector, exercising the reconnect path below. `obs` (optional)
    /// feeds the RPC client's pipelining instrumentation.
    Status connect(const std::string& host, std::uint16_t rpc_port,
                   fault::FaultInjector* fault = nullptr,
                   obs::Obs* obs = nullptr);

    Result<ExecutorId> register_executor(
        const wire::RegisterRequest& request) override;
    Result<std::vector<TaskSpec>> get_work(ExecutorId executor,
                                           std::uint32_t max_tasks) override;
    Result<std::vector<TaskSpec>> deliver_results(
        ExecutorId executor, std::vector<TaskResult> results,
        std::uint32_t want_tasks) override;
    Status deregister(ExecutorId executor, const std::string& reason) override;
    Status heartbeat(ExecutorId executor) override;

    /// Attach the executor's data plane (docs/DATA.md): registration and
    /// heartbeats piggyback its cache digest, and heartbeats drain its
    /// eviction notices into kDataEvict frames. Call before connect().
    void set_data(DataPlane* data) { data_ = data; }

    /// Dispatcher epoch from the last RegisterReply — bumps after the
    /// executor re-registers on a promoted standby (docs/HA.md).
    [[nodiscard]] std::uint64_t epoch() const {
      return epoch_.load(std::memory_order_acquire);
    }

   private:
    /// One RPC exchange with lazy reconnect: a transport-level failure
    /// (severed, truncated, or corrupted stream) discards the connection so
    /// the next attempt dials fresh — paired with the runtime's
    /// backoff-retry loop this is the executor's reconnect story.
    Result<wire::Message> roundtrip(const wire::Message& request);

    std::mutex mu_;
    std::string host_;
    std::uint16_t rpc_port_{0};
    fault::FaultInjector* fault_{nullptr};
    obs::Obs* obs_{nullptr};
    std::unique_ptr<net::RpcClient> rpc_;
    /// Highest TaskBundle.bundle_seq received; echoed as the batched ack
    /// in the next ResultBundle (guarded by mu_).
    std::uint64_t last_bundle_seq_{0};
    std::atomic<std::uint64_t> epoch_{0};
    DataPlane* data_{nullptr};
    /// Generation of the last digest the dispatcher acknowledged; ~0 forces
    /// a full digest on the next heartbeat (fresh link or re-registration).
    std::atomic<std::uint64_t> sent_digest_generation_{~0ull};
  };

  Clock& clock_;
  std::string host_;
  std::uint16_t rpc_port_;
  std::uint16_t push_port_;
  ExecutorOptions options_;
  Link link_;
  std::unique_ptr<TaskEngine> engine_;
  std::unique_ptr<ExecutorRuntime> runtime_;
  net::PushReceiver receiver_;
};

/// Client-side dispatcher stub over TCP.
///
/// Two result-delivery regimes:
///   * Polling (push_port == 0, the firewall-mode default): wait_results is
///     a WaitResultsRequest RPC per batch — one roundtrip each.
///   * Streaming (push_port != 0): create_instance subscribes the instance
///     on the notification channel (SubscribeResults{ack_seq=0}) and the
///     dispatcher pushes drained mailbox batches as ResultStream frames.
///     wait_results drains a local buffer and acknowledges cumulatively —
///     steady-state delivery costs zero request roundtrips. A severed or
///     lossy push channel degrades to one-shot polls (the dispatcher keeps
///     every un-acked result in the mailbox), and all three arrival paths
///     (pushed, ack-replied, polled) funnel through a per-instance task-id
///     filter, so the caller sees each result exactly once.
class TcpDispatcherClient final : public DispatcherClient {
 public:
  static Result<std::unique_ptr<TcpDispatcherClient>> connect(
      const std::string& host, std::uint16_t rpc_port,
      std::uint16_t push_port = 0);

  Result<InstanceId> create_instance(ClientId client) override;
  Result<std::uint64_t> submit(InstanceId instance,
                               std::vector<TaskSpec> tasks) override;
  Result<std::vector<TaskResult>> wait_results(InstanceId instance,
                                               std::uint32_t max_results,
                                               double timeout_s) override;
  Status destroy_instance(InstanceId instance) override;
  Result<DispatcherStatus> status() override;

  /// True when the instance is subscribed on the push channel (streaming
  /// regime); false in polling mode or after subscription failed.
  [[nodiscard]] bool streaming(InstanceId instance) const;

 private:
  /// Per-instance streaming state. `mu` guards everything but `receiver`
  /// (started once at subscription, stopped at destroy); `cv` wakes
  /// wait_results when the read thread lands a frame.
  struct Stream {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<TaskResult> buffer;
    /// Task ids already handed to the caller — the exactly-once filter for
    /// re-streams (resubscribe) and poll/push overlap.
    std::unordered_set<std::uint64_t> delivered;
    /// Highest contiguously-received ResultStream.seq; what we ack.
    std::uint64_t last_seq{0};
    /// Last seq acknowledged to the dispatcher via SubscribeResults.
    std::uint64_t acked_seq{0};
    /// A frame gap was observed (seq jumped past buffer+results): the next
    /// wait_results resubscribes from zero so the dispatcher re-streams its
    /// un-acked prefix. Acking across a gap would discard results the
    /// client never saw, so last_seq freezes until the resubscribe.
    bool resync{false};
    /// Serialises SubscribeResults RPCs for this instance: the dispatcher's
    /// cursor protocol assumes acks and resubscribes never interleave.
    std::mutex ack_mu;
    /// Declared last so its destructor joins the read thread before the
    /// state above is torn down.
    net::PushReceiver receiver;
  };

  TcpDispatcherClient(net::RpcClient rpc, std::string host,
                      std::uint16_t push_port)
      : rpc_(std::move(rpc)), host_(std::move(host)), push_port_(push_port) {}

  /// Streaming-regime wait: drain the local buffer (cv-timed), acknowledge
  /// cumulatively, fall back to a one-shot poll on timeout or resync.
  Result<std::vector<TaskResult>> wait_streamed(InstanceId instance,
                                                const std::shared_ptr<Stream>& stream,
                                                std::uint32_t max_results,
                                                double timeout_s);
  static void on_stream_frame(const std::shared_ptr<Stream>& stream,
                              const wire::Message& message);
  [[nodiscard]] std::shared_ptr<Stream> find_stream(InstanceId instance) const;

  net::RpcClient rpc_;
  std::string host_;
  std::uint16_t push_port_{0};
  mutable std::mutex streams_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Stream>> streams_;
};

}  // namespace falkon::core
