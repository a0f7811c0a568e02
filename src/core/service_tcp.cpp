#include "core/service_tcp.h"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "common/logging.h"
#include "core/data_plane.h"

namespace falkon::core {
namespace {

template <class Expected>
Result<Expected> expect(Result<wire::Message> reply) {
  if (!reply.ok()) return reply.error();
  auto* payload = std::get_if<Expected>(&reply.value());
  if (payload == nullptr) {
    return make_error(ErrorCode::kProtocolError,
                      std::string("unexpected reply type: ") +
                          wire::msg_type_name(message_type(reply.value())));
  }
  return std::move(*payload);
}

}  // namespace

TcpDispatcherServer::TcpDispatcherServer(Dispatcher& dispatcher, obs::Obs* obs,
                                         int /*ignored*/)
    : dispatcher_(dispatcher),
      obs_(obs),
      reactor_(net::ReactorOptions{.obs = obs}) {
  if (obs != nullptr) {
    obs::Registry& reg = obs->registry();
    m_requests_ = &reg.counter("falkon.net.rpc.requests");
    m_errors_ = &reg.counter("falkon.net.rpc.errors");
    m_pushes_ = &reg.counter("falkon.net.push.notifications");
    m_pending_bundles_ = &reg.gauge("falkon.net.rpc.pending_bundles");
    m_bundles_issued_ = &reg.counter("falkon.net.rpc.bundles_issued");
    m_bundles_retired_ = &reg.counter("falkon.net.rpc.bundles_retired");
  }
}

TcpDispatcherServer::~TcpDispatcherServer() { stop(); }

Status TcpDispatcherServer::start(std::uint16_t rpc_port,
                                  std::uint16_t push_port,
                                  fault::FaultInjector* fault) {
  if (auto status = reactor_.start(); !status.ok()) return status;
  net::PushServerOptions push_options;
  push_options.reactor = &reactor_;
  if (auto status = push_.start(push_port, fault, obs_, push_options);
      !status.ok()) {
    return status;
  }
  sink_ = std::make_shared<PushSink>(*this, m_pushes_);
  client_sink_ = std::make_shared<ClientPushSink>(push_);
  dispatcher_.set_client_sink(client_sink_);
  // A shared handler pool keeps slow/blocking handlers (wait_results with a
  // timeout) from stalling pipelined calls on the same connection; the
  // reactor loop itself never runs handlers.
  net::RpcServerOptions options;
  options.handler_threads = 16;
  options.obs = obs_;
  options.reactor = &reactor_;
  if (auto status =
          rpc_.start([this](const wire::Message& m) { return handle(m); },
                     rpc_port, fault, options);
      !status.ok()) {
    // Unwind the sink registration: with start() failed, stop() will be a
    // no-op, and the dispatcher must not keep notifying through a server
    // the caller is about to destroy.
    dispatcher_.set_client_sink(nullptr);
    return status;
  }
  // Move the dispatcher's recovery sweep onto the reactor's timer wheel:
  // same cadence, one fewer dedicated thread in the deployment.
  if (dispatcher_.adopt_external_sweeper()) {
    sweeper_adopted_ = true;
    sweep_timer_ = reactor_.add_periodic(
        dispatcher_.sweep_interval_real_s(), [this] { dispatcher_.sweep_once(); });
  }
  started_ = true;
  return ok_status();
}

void TcpDispatcherServer::stop() {
  // Idempotent: a dead primary's server object may be stopped explicitly
  // and then destroyed after its Dispatcher is already gone — the second
  // stop must not touch the dangling reference.
  if (!started_) return;
  started_ = false;
  if (sweeper_adopted_) {
    reactor_.cancel_timer(sweep_timer_);
    reactor_.barrier();  // a final sweep_once() may be mid-flight
    sweeper_adopted_ = false;
    dispatcher_.resume_internal_sweeper();
  }
  dispatcher_.set_client_sink(nullptr);
  rpc_.stop();
  push_.stop();
  reactor_.stop();
}

Status TcpResultListener::start(const std::string& host,
                                std::uint16_t push_port, InstanceId instance,
                                Callback callback) {
  return receiver_.start(
      host, push_port, kClientKeyBase + instance.value,
      [callback = std::move(callback)](const wire::Message& message) {
        if (const auto* notify = std::get_if<wire::ClientNotify>(&message)) {
          callback(notify->instance_id, notify->completed);
        }
      });
}

void TcpDispatcherServer::release_executor(std::uint64_t executor_value) {
  push_.drop_subscriber(executor_value);
  std::lock_guard lock(bundles_mu_);
  if (pending_bundles_.erase(executor_value) != 0) {
    if (m_bundles_retired_) m_bundles_retired_->inc();
    if (m_pending_bundles_) {
      m_pending_bundles_->set(static_cast<double>(pending_bundles_.size()));
    }
  }
}

void TcpResultListener::stop() { receiver_.stop(); }

wire::Message TcpDispatcherServer::handle(const wire::Message& request) {
  if (m_requests_) m_requests_->inc();
  wire::Message reply = dispatch(request);
  if (m_errors_ && std::get_if<wire::ErrorReply>(&reply) != nullptr) {
    m_errors_->inc();
  }
  return reply;
}

wire::Message TcpDispatcherServer::dispatch(const wire::Message& request) {
  using namespace wire;
  if (const auto* m = std::get_if<CreateInstanceRequest>(&request)) {
    auto result = dispatcher_.create_instance(m->client_id);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    return CreateInstanceReply{result.value()};
  }
  if (const auto* m = std::get_if<DestroyInstanceRequest>(&request)) {
    auto result = dispatcher_.destroy_instance(m->instance_id);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    return DestroyInstanceReply{};
  }
  if (const auto* m = std::get_if<SubmitRequest>(&request)) {
    const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
    if (m->epoch != 0 && m->epoch != epoch) {
      // Fencing both ways: a client that learned a newer epoch must not be
      // accepted by this (zombie) server, and a client stamped with an old
      // epoch re-syncs via status() before retrying.
      return ErrorReply{ErrorCode::kUnavailable,
                        "epoch mismatch: request epoch " +
                            std::to_string(m->epoch) + ", server epoch " +
                            std::to_string(epoch)};
    }
    auto result = dispatcher_.submit(m->instance_id, m->tasks, m->submit_seq);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    return SubmitReply{result.value(), epoch};
  }
  if (const auto* m = std::get_if<SubscribeResults>(&request)) {
    // (Re)subscribe / cumulative ack for push-mode result streaming. The
    // reply is a ResultStream carrying the dispatcher's current cursor and
    // no results — actual batches arrive on the push channel.
    auto result = dispatcher_.subscribe_results(m->instance_id, m->ack_seq);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    ResultStream reply;
    reply.instance_id = m->instance_id;
    reply.seq = result.value();
    return reply;
  }
  if (const auto* m = std::get_if<WaitResultsRequest>(&request)) {
    auto result =
        dispatcher_.wait_results(m->instance_id, m->max_results, m->timeout_s);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    WaitResultsReply reply;
    reply.results = result.take();
    return reply;
  }
  if (const auto* m = std::get_if<RegisterRequest>(&request)) {
    auto result = dispatcher_.register_executor(*m, sink_);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    return RegisterReply{result.value(),
                         epoch_.load(std::memory_order_acquire)};
  }
  if (const auto* m = std::get_if<GetWorkRequest>(&request)) {
    auto result = dispatcher_.get_work(m->executor_id, m->max_tasks);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    GetWorkReply reply;
    reply.tasks = result.take();
    return reply;
  }
  if (const auto* m = std::get_if<ResultRequest>(&request)) {
    auto result = dispatcher_.deliver_results(m->executor_id, m->results,
                                              m->want_tasks);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    ResultReply reply;
    reply.acknowledged = result.value().acknowledged;
    reply.piggyback_tasks = std::move(result.value().piggyback);
    return reply;
  }
  if (const auto* m = std::get_if<ResultBundle>(&request)) {
    // Batched-ack bookkeeping: the echoed ack_seq retires the executor's
    // outstanding bundle in one shot (no per-task ack traffic).
    if (m->ack_seq != 0) {
      std::lock_guard lock(bundles_mu_);
      auto it = pending_bundles_.find(m->executor_id.value);
      if (it != pending_bundles_.end() && m->ack_seq >= it->second) {
        pending_bundles_.erase(it);
        if (m_bundles_retired_) m_bundles_retired_->inc();
      }
      if (m_pending_bundles_) {
        m_pending_bundles_->set(static_cast<double>(pending_bundles_.size()));
      }
    }
    auto result = dispatcher_.deliver_results(m->executor_id, m->results,
                                              m->want_tasks);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    TaskBundle reply;
    reply.executor_id = m->executor_id;
    reply.acknowledged = result.value().acknowledged;
    reply.tasks = std::move(result.value().piggyback);
    if (!reply.tasks.empty()) {
      reply.bundle_seq = bundle_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
      std::lock_guard lock(bundles_mu_);
      auto [it, inserted] =
          pending_bundles_.emplace(m->executor_id.value, reply.bundle_seq);
      if (!inserted) {
        // Superseding an unacked seq settles it: the next ack_seq covers
        // both (cumulative ack), so only the newest needs tracking.
        it->second = reply.bundle_seq;
        if (m_bundles_retired_) m_bundles_retired_->inc();
      }
      if (m_bundles_issued_) m_bundles_issued_->inc();
      if (m_pending_bundles_) {
        m_pending_bundles_->set(static_cast<double>(pending_bundles_.size()));
      }
    }
    return reply;
  }
  if (const auto* m = std::get_if<HeartbeatRequest>(&request)) {
    auto result = dispatcher_.heartbeat(m->executor_id);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    if (m->has_digest) {
      // Piggybacked cache digest (docs/DATA.md): refresh the locality
      // router's mirror in the same exchange that proves liveness.
      dispatcher_.apply_digest(m->executor_id, m->digest_generation,
                               m->data_port, m->cached);
    }
    return HeartbeatReply{};
  }
  if (const auto* m = std::get_if<CacheDigest>(&request)) {
    // Standalone digest refresh (same payload the heartbeat piggybacks);
    // unknown executors are a protocol error, not a transport teardown.
    auto entry = dispatcher_.heartbeat(m->executor_id);
    if (!entry.ok()) return ErrorReply{entry.error().code, entry.error().message};
    dispatcher_.apply_digest(m->executor_id, m->generation, m->data_port,
                             m->objects);
    return HeartbeatReply{};
  }
  if (const auto* m = std::get_if<DataEvict>(&request)) {
    // Incremental eviction notice: the object must stop attracting locality
    // routes immediately (invariant I11). Unknown executor or an object the
    // executor never advertised answers kNotFound — an ErrorReply, never a
    // connection teardown.
    auto result = dispatcher_.evict_cached_object(m->executor_id, m->object);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    return HeartbeatReply{};
  }
  if (const auto* m = std::get_if<DeregisterRequest>(&request)) {
    // Transport cleanup rides the sink's on_removed hook (same path the
    // failure detector takes); release here too so an unknown executor —
    // where deregister_executor never fires the hook — still drops its
    // push subscription.
    auto result = dispatcher_.deregister_executor(m->executor_id, m->reason);
    release_executor(m->executor_id.value);
    if (!result.ok()) return ErrorReply{result.error().code, result.error().message};
    return DeregisterReply{};
  }
  if (std::get_if<StatusRequest>(&request) != nullptr) {
    StatusReply reply = dispatcher_.status().to_wire();
    reply.epoch = epoch_.load(std::memory_order_acquire);
    return reply;
  }
  if (const auto* m = std::get_if<ReplFetch>(&request)) {
    ReplicationSource* source =
        replication_.load(std::memory_order_acquire);
    if (source == nullptr) {
      return ErrorReply{ErrorCode::kUnavailable,
                        "replication not enabled on this dispatcher"};
    }
    auto batch = source->fetch(m->from_lsn, m->max_bytes);
    if (m->epoch != 0 && m->epoch > batch.epoch) {
      // The follower has seen a newer regime than this source: we are the
      // stale side and must not feed it our (dead) branch of history.
      return ErrorReply{ErrorCode::kUnavailable,
                        "stale replication source: follower epoch " +
                            std::to_string(m->epoch) + " > source epoch " +
                            std::to_string(batch.epoch)};
    }
    if (batch.is_snapshot) {
      ReplSnapshot reply;
      reply.lsn = batch.last_lsn;
      reply.payload = std::move(batch.payload);
      reply.epoch = batch.epoch;
      return reply;
    }
    ReplAppend reply;
    reply.first_lsn = batch.first_lsn;
    reply.last_lsn = batch.last_lsn;
    reply.payload = std::move(batch.payload);
    reply.epoch = batch.epoch;
    return reply;
  }
  if (const auto* m = std::get_if<ReplAck>(&request)) {
    ReplicationSource* source =
        replication_.load(std::memory_order_acquire);
    if (source != nullptr) source->note_ack(m->applied_lsn);
    return ReplAckReply{};
  }
  if (std::get_if<ElectionPing>(&request) != nullptr) {
    // A running primary answers election pings as an already-promoted rank-0
    // contestant: any standby probing it stands down immediately.
    ElectionAck ack;
    ack.epoch = epoch_.load(std::memory_order_acquire);
    ack.rank = 0;
    ack.promoted = true;
    return ack;
  }
  return ErrorReply{ErrorCode::kProtocolError,
                    std::string("unhandled request: ") +
                        wire::msg_type_name(message_type(request))};
}

Status TcpExecutorHarness::Link::connect(const std::string& host,
                                         std::uint16_t rpc_port,
                                         fault::FaultInjector* fault,
                                         obs::Obs* obs) {
  std::lock_guard lock(mu_);
  host_ = host;
  rpc_port_ = rpc_port;
  fault_ = fault;
  obs_ = obs;
  auto client = net::RpcClient::connect(host_, rpc_port_, fault_, obs_);
  if (!client.ok()) return client.error();
  rpc_ = std::make_unique<net::RpcClient>(client.take());
  return ok_status();
}

Result<wire::Message> TcpExecutorHarness::Link::roundtrip(
    const wire::Message& request) {
  std::lock_guard lock(mu_);
  if (rpc_ == nullptr) {
    auto client = net::RpcClient::connect(host_, rpc_port_, fault_, obs_);
    if (!client.ok()) return client.error();
    rpc_ = std::make_unique<net::RpcClient>(client.take());
  }
  auto reply = rpc_->call(request);
  if (!reply.ok()) {
    const ErrorCode code = reply.error().code;
    if (code == ErrorCode::kIoError || code == ErrorCode::kClosed ||
        code == ErrorCode::kProtocolError || code == ErrorCode::kUnavailable) {
      // Transport-level failure: the stream may be desynchronised or dead.
      // Drop the connection so the next attempt dials fresh.
      rpc_.reset();
    }
  }
  return reply;
}

Result<ExecutorId> TcpExecutorHarness::Link::register_executor(
    const wire::RegisterRequest& request) {
  wire::RegisterRequest stamped = request;
  if (data_ != nullptr) {
    // Seed the dispatcher's cache mirror in the registration itself so a
    // warm executor (or one re-registering on a promoted standby) attracts
    // locality routes from its very first get-work.
    stamped.data_port = data_->port();
    stamped.cached = data_->digest().objects;
    sent_digest_generation_.store(~0ull, std::memory_order_release);
  }
  auto reply = expect<wire::RegisterReply>(roundtrip(stamped));
  if (!reply.ok()) return reply.error();
  epoch_.store(reply.value().epoch, std::memory_order_release);
  return reply.value().executor_id;
}

Result<std::vector<TaskSpec>> TcpExecutorHarness::Link::get_work(
    ExecutorId executor, std::uint32_t max_tasks) {
  wire::GetWorkRequest request;
  request.executor_id = executor;
  request.max_tasks = max_tasks;
  auto reply = expect<wire::GetWorkReply>(roundtrip(request));
  if (!reply.ok()) return reply.error();
  return std::move(reply.value().tasks);
}

Result<std::vector<TaskSpec>> TcpExecutorHarness::Link::deliver_results(
    ExecutorId executor, std::vector<TaskResult> results,
    std::uint32_t want_tasks) {
  wire::ResultBundle request;
  request.executor_id = executor;
  {
    std::lock_guard lock(mu_);
    request.ack_seq = last_bundle_seq_;
  }
  request.results = std::move(results);
  request.want_tasks = want_tasks;
  auto reply = expect<wire::TaskBundle>(roundtrip(request));
  if (!reply.ok()) return reply.error();
  if (reply.value().bundle_seq != 0) {
    std::lock_guard lock(mu_);
    last_bundle_seq_ = reply.value().bundle_seq;
  }
  return std::move(reply.value().tasks);
}

Status TcpExecutorHarness::Link::deregister(ExecutorId executor,
                                            const std::string& reason) {
  wire::DeregisterRequest request;
  request.executor_id = executor;
  request.reason = reason;
  auto reply = expect<wire::DeregisterReply>(roundtrip(request));
  if (!reply.ok()) return reply.error();
  return ok_status();
}

Status TcpExecutorHarness::Link::heartbeat(ExecutorId executor) {
  wire::HeartbeatRequest request;
  request.executor_id = executor;
  std::uint64_t digest_generation = 0;
  if (data_ != nullptr) {
    // Incremental eviction notices first: a kDataEvict must land before the
    // dispatcher's next routing decision even when the digest below is
    // skipped as unchanged. kNotFound (already gone upstream) is fine.
    for (auto& object : data_->take_evict_notices()) {
      wire::DataEvict evict;
      evict.executor_id = executor;
      evict.object = std::move(object);
      (void)roundtrip(evict);
    }
    auto digest = data_->digest();
    digest_generation = digest.generation;
    if (digest_generation !=
        sent_digest_generation_.load(std::memory_order_acquire)) {
      request.has_digest = true;
      request.digest_generation = digest_generation;
      request.data_port = data_->port();
      request.cached = std::move(digest.objects);
    }
  }
  auto reply = expect<wire::HeartbeatReply>(roundtrip(request));
  if (!reply.ok()) return reply.error();
  if (request.has_digest) {
    sent_digest_generation_.store(digest_generation, std::memory_order_release);
  }
  return ok_status();
}

TcpExecutorHarness::TcpExecutorHarness(Clock& clock, std::string host,
                                       std::uint16_t rpc_port,
                                       std::uint16_t push_port,
                                       std::unique_ptr<TaskEngine> engine,
                                       ExecutorOptions options)
    : clock_(clock),
      host_(std::move(host)),
      rpc_port_(rpc_port),
      push_port_(push_port),
      options_(options),
      engine_(std::move(engine)) {
  runtime_ = std::make_unique<ExecutorRuntime>(clock_, link_, *engine_,
                                               options_);
}

TcpExecutorHarness::~TcpExecutorHarness() { stop(); }

Status TcpExecutorHarness::start() {
  if (options_.data != nullptr) {
    // Bring the peer-to-peer fetch server up before registering: the
    // registration advertises its port, so it must already be listening.
    if (auto status = options_.data->start(); !status.ok()) return status;
    link_.set_data(options_.data);
  }
  if (auto status = link_.connect(host_, rpc_port_, options_.fault,
                                  options_.obs);
      !status.ok()) {
    return status;
  }
  if (options_.poll_interval_s <= 0) {
    // A failover re-registration changes our executor id; re-key the push
    // subscription (runs on the runtime's work thread, where PushReceiver
    // stop/start is safe) so the promoted dispatcher can notify us.
    runtime_->set_id_listener([this](ExecutorId id) {
      receiver_.stop();
      (void)receiver_.start(host_, push_port_, id.value,
                            [this](const wire::Message& message) {
                              if (const auto* notify =
                                      std::get_if<wire::Notify>(&message)) {
                                runtime_->notify(notify->resource_key);
                              }
                            });
    });
  }
  if (auto status = runtime_->start(); !status.ok()) return status;
  if (options_.poll_interval_s > 0) {
    // Polling (firewall-bypass) mode: no notification channel at all —
    // only outbound RPC connections leave this host.
    return ok_status();
  }
  // Subscribe for notifications with the id the dispatcher assigned.
  return receiver_.start(host_, push_port_, runtime_->id().value,
                         [this](const wire::Message& message) {
                           if (const auto* notify =
                                   std::get_if<wire::Notify>(&message)) {
                             runtime_->notify(notify->resource_key);
                           }
                         });
}

void TcpExecutorHarness::stop() {
  if (runtime_) runtime_->stop();
  receiver_.stop();
}

Result<std::unique_ptr<TcpDispatcherClient>> TcpDispatcherClient::connect(
    const std::string& host, std::uint16_t rpc_port, std::uint16_t push_port) {
  auto rpc = net::RpcClient::connect(host, rpc_port);
  if (!rpc.ok()) return rpc.error();
  return std::unique_ptr<TcpDispatcherClient>(
      new TcpDispatcherClient(rpc.take(), host, push_port));
}

Result<InstanceId> TcpDispatcherClient::create_instance(ClientId client) {
  wire::CreateInstanceRequest request;
  request.client_id = client;
  auto reply = expect<wire::CreateInstanceReply>(rpc_.call(request));
  if (!reply.ok()) return reply.error();
  const InstanceId instance = reply.value().instance_id;
  if (push_port_ == 0) return instance;
  // Streaming regime: subscribe the instance on the push channel, then arm
  // the dispatcher's drain with SubscribeResults{ack_seq=0}. Any failure
  // here is absorbed — the instance simply stays in polling mode.
  auto stream = std::make_shared<Stream>();
  Status started = stream->receiver.start(
      host_, push_port_, kClientKeyBase + instance.value,
      [weak = std::weak_ptr<Stream>(stream)](const wire::Message& message) {
        if (auto live = weak.lock()) on_stream_frame(live, message);
      });
  if (started.ok()) {
    wire::SubscribeResults subscribe;
    subscribe.instance_id = instance;
    subscribe.ack_seq = 0;
    auto armed = expect<wire::ResultStream>(rpc_.call(subscribe));
    if (armed.ok()) {
      std::lock_guard lock(streams_mu_);
      streams_.emplace(instance.value, std::move(stream));
    } else {
      stream->receiver.stop();
    }
  }
  return instance;
}

void TcpDispatcherClient::on_stream_frame(const std::shared_ptr<Stream>& stream,
                                          const wire::Message& message) {
  const auto* frame = std::get_if<wire::ResultStream>(&message);
  if (frame == nullptr) return;  // e.g. a stray ClientNotify
  std::lock_guard lock(stream->mu);
  if (!stream->resync &&
      frame->seq == stream->last_seq + frame->results.size()) {
    stream->last_seq = frame->seq;
  } else {
    // Gap: a frame was lost in flight (or a stale pre-resubscribe frame
    // landed late). Keep the results — the delivered filter protects the
    // caller — but freeze the ack cursor: acknowledging past results we
    // never received would let the dispatcher discard them. The next
    // wait_results resubscribes from zero and the un-acked tail re-streams.
    stream->resync = true;
  }
  for (const auto& result : frame->results) stream->buffer.push_back(result);
  stream->cv.notify_all();
}

std::shared_ptr<TcpDispatcherClient::Stream> TcpDispatcherClient::find_stream(
    InstanceId instance) const {
  std::lock_guard lock(streams_mu_);
  auto it = streams_.find(instance.value);
  return it == streams_.end() ? nullptr : it->second;
}

bool TcpDispatcherClient::streaming(InstanceId instance) const {
  return find_stream(instance) != nullptr;
}

// One cumulative-ack round trip per this many streamed results. The value
// trades dispatcher mailbox residency (un-acked results stay buffered
// server-side) against RPC rate on the client's hot receive loop.
inline constexpr std::uint64_t kAckBatchResults = 8192;

Result<std::vector<TaskResult>> TcpDispatcherClient::wait_streamed(
    InstanceId instance, const std::shared_ptr<Stream>& stream,
    std::uint32_t max_results, double timeout_s) {
  std::vector<TaskResult> out;
  std::uint64_t ack = 0;
  bool resync = false;
  {
    std::unique_lock lock(stream->mu);
    stream->cv.wait_for(
        lock, std::chrono::duration<double>(std::max(0.0, timeout_s)),
        [&] { return !stream->buffer.empty() || stream->resync; });
    while (out.size() < max_results && !stream->buffer.empty()) {
      TaskResult result = std::move(stream->buffer.front());
      stream->buffer.pop_front();
      // The exactly-once filter: pushed frames, resubscribe re-streams and
      // poll fallbacks all funnel through `delivered`.
      if (stream->delivered.insert(result.task_id.value).second) {
        out.push_back(std::move(result));
      }
    }
    // Batched cumulative acks: one SubscribeResults round trip per
    // kAckBatchResults streamed results (or before a resync, to shrink
    // the re-stream) instead of one per drain — the steady-state receive
    // loop stays RPC-free, which is the point of push mode. Un-acked
    // results just sit in the dispatcher mailbox a little longer; on any
    // failure they re-deliver and the task-id filter absorbs them.
    const std::uint64_t pending = stream->last_seq - stream->acked_seq;
    if (pending > 0 && (pending >= kAckBatchResults || stream->resync)) {
      ack = stream->last_seq;
    }
    resync = stream->resync;
  }
  std::lock_guard ack_lock(stream->ack_mu);
  if (ack != 0) {
    // Cumulative ack: the dispatcher journals delivery and drops the acked
    // prefix from the mailbox. Failure is benign — un-acked results stay
    // in the mailbox and re-stream or poll later.
    wire::SubscribeResults request;
    request.instance_id = instance;
    request.ack_seq = ack;
    if (expect<wire::ResultStream>(rpc_.call(request)).ok()) {
      std::lock_guard lock(stream->mu);
      stream->acked_seq = std::max(stream->acked_seq, ack);
    }
  }
  if (resync) {
    // Re-arm from zero: the dispatcher resets its cursors and re-streams
    // everything still un-acked in the mailbox.
    wire::SubscribeResults request;
    request.instance_id = instance;
    request.ack_seq = 0;
    if (expect<wire::ResultStream>(rpc_.call(request)).ok()) {
      std::lock_guard lock(stream->mu);
      stream->resync = false;
      stream->last_seq = 0;
      stream->acked_seq = 0;
    }
  }
  if (!out.empty()) return out;
  // Nothing pushed within the timeout: one-shot poll. This is the lossy-
  // channel fallback — the dispatcher hands back its streamed-but-unacked
  // prefix (possibly duplicating buffered results; the filter absorbs it)
  // and re-arms its drain for anything left.
  wire::WaitResultsRequest request;
  request.instance_id = instance;
  request.max_results = max_results;
  request.timeout_s = 0;
  auto reply = expect<wire::WaitResultsReply>(rpc_.call(request));
  if (!reply.ok()) return reply.error();
  std::lock_guard lock(stream->mu);
  for (auto& result : reply.value().results) {
    if (stream->delivered.insert(result.task_id.value).second) {
      out.push_back(std::move(result));
    }
  }
  return out;
}

Result<std::uint64_t> TcpDispatcherClient::submit(InstanceId instance,
                                                  std::vector<TaskSpec> tasks) {
  wire::SubmitRequest request;
  request.instance_id = instance;
  request.tasks = std::move(tasks);
  auto reply = expect<wire::SubmitReply>(rpc_.call(request));
  if (!reply.ok()) return reply.error();
  return reply.value().accepted;
}

Result<std::vector<TaskResult>> TcpDispatcherClient::wait_results(
    InstanceId instance, std::uint32_t max_results, double timeout_s) {
  if (auto stream = find_stream(instance)) {
    return wait_streamed(instance, stream, max_results, timeout_s);
  }
  wire::WaitResultsRequest request;
  request.instance_id = instance;
  request.max_results = max_results;
  request.timeout_s = timeout_s;
  auto reply = expect<wire::WaitResultsReply>(rpc_.call(request));
  if (!reply.ok()) return reply.error();
  return std::move(reply.value().results);
}

Status TcpDispatcherClient::destroy_instance(InstanceId instance) {
  std::shared_ptr<Stream> stream;
  {
    std::lock_guard lock(streams_mu_);
    auto it = streams_.find(instance.value);
    if (it != streams_.end()) {
      stream = std::move(it->second);
      streams_.erase(it);
    }
  }
  if (stream != nullptr) stream->receiver.stop();
  wire::DestroyInstanceRequest request;
  request.instance_id = instance;
  auto reply = expect<wire::DestroyInstanceReply>(rpc_.call(request));
  if (!reply.ok()) return reply.error();
  return ok_status();
}

Result<DispatcherStatus> TcpDispatcherClient::status() {
  auto reply = expect<wire::StatusReply>(rpc_.call(wire::StatusRequest{}));
  if (!reply.ok()) return reply.error();
  DispatcherStatus status;
  status.submitted = reply.value().submitted_tasks;
  status.queued = reply.value().queued_tasks;
  status.dispatched = reply.value().dispatched_tasks;
  status.completed = reply.value().completed_tasks;
  status.failed = reply.value().failed_tasks;
  status.retried = reply.value().retried_tasks;
  status.suspicions = reply.value().suspicions;
  status.false_suspicions = reply.value().false_suspicions;
  status.quarantined = reply.value().quarantined_tasks;
  status.registered_executors = reply.value().registered_executors;
  status.busy_executors = reply.value().busy_executors;
  status.idle_executors = reply.value().idle_executors;
  return status;
}

}  // namespace falkon::core
