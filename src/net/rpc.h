// Request/response RPC and push-notification channels over TCP.
//
// This is the C++ stand-in for the GT4 WS container of the original Falkon:
//   * RpcServer/RpcClient carry the WS-style request/response operations
//     (submit, get-work, deliver-result, status, ...);
//   * PushServer/PushReceiver carry the custom TCP notification protocol of
//     paper section 3.3 (implementation alternative 2: the executor is a
//     plain client that subscribes for notifications).
//
// The RPC channel is *pipelined*: every frame carries a correlation id, the
// client keeps many calls outstanding on one connection and a reader thread
// demuxes replies to per-call waiters. The server side runs on the
// falkon::net::Reactor — one epoll loop owns every accepted connection, so
// a dispatcher holding hundreds of registered executors costs loop + pool
// threads, not two threads per connection. Handlers run on a shared pool
// (the loop thread never blocks); replies drain through per-connection
// outboxes as gathered writes with watermark backpressure.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "fault/fault.h"
#include "net/reactor.h"
#include "net/socket.h"
#include "obs/obs.h"
#include "wire/message.h"

namespace falkon::net {

/// Server-side request handler: one message in, one message out.
using RpcHandler = std::function<wire::Message(const wire::Message&)>;

struct RpcServerOptions {
  /// Handler pool size. 0 means one shared handler thread (strict FIFO
  /// through a single worker, what unit tests expect); N > 0 gives a pool
  /// of N so a blocking handler (wait_results) cannot stall pipelined
  /// calls behind it and replies genuinely reorder. Handlers never run on
  /// the reactor loop thread.
  std::size_t handler_threads{0};
  /// Optional metrics sink (falkon.net.frames_coalesced plus the
  /// falkon.net.reactor.* family when the server owns its reactor).
  obs::Obs* obs{nullptr};
  /// Run on this shared reactor instead of owning one (the TCP service
  /// shares a single loop between RPC and push). The watermark fields
  /// below only apply to an owned reactor.
  Reactor* reactor{nullptr};
  std::size_t high_watermark_bytes{8u << 20};
  std::size_t low_watermark_bytes{1u << 20};
  /// Test-only: shrink SO_SNDBUF on accepted sockets to force the
  /// partial-write/EAGAIN paths.
  int sndbuf_bytes{0};
};

/// Accepts connections on the reactor and serves framed request/response
/// exchanges. Connections are reactor-owned Conn objects (no per-connection
/// threads); requests are decoded and handled on the shared pool, and
/// replies drain through the connection outbox as coalesced gathered writes.
class RpcServer {
 public:
  RpcServer() = default;
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Bind (port 0 = ephemeral) and start accepting. `fault` (optional,
  /// test-only) injects reply-frame faults at Site::kRpcReply.
  Status start(RpcHandler handler, std::uint16_t port = 0,
               fault::FaultInjector* fault = nullptr,
               RpcServerOptions options = {});

  /// Stop accepting, sever all connections, drain the handler pool.
  /// Idempotent.
  void stop();

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  [[nodiscard]] std::size_t active_connections() const;

 private:
  void on_accept(int fd);
  void on_frame(const std::shared_ptr<Reactor::Conn>& conn,
                std::uint64_t corr, std::vector<std::uint8_t>&& payload);
  void on_close(const std::shared_ptr<Reactor::Conn>& conn);
  void enqueue_reply(const std::shared_ptr<Reactor::Conn>& conn,
                     std::uint64_t corr, const wire::Message& reply);

  TcpListener listener_;
  RpcHandler handler_;
  fault::FaultInjector* fault_{nullptr};
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Reactor> owned_reactor_;
  Reactor* reactor_{nullptr};
  int sndbuf_bytes_{0};
  mutable std::mutex mu_;
  std::vector<std::weak_ptr<Reactor::Conn>> connections_;
  std::atomic<bool> stopping_{false};
  bool started_{false};
};

/// Pipelined RPC client: many outstanding calls share one connection. Each
/// call takes a fresh correlation id and parks on its own waiter; a reader
/// thread demuxes reply frames by correlation id. Out-of-order replies (a
/// pooled server finishing a fast call before a slow one) route correctly.
///
/// Failure semantics: a frame that fails to *decode* (corrupt payload,
/// intact framing) fails only the call it correlates to; a stream-level
/// error (drop, truncation, peer death) fails every call in flight on the
/// connection, which is exactly the set mapped to the lost stream.
class RpcClient {
 public:
  /// `fault` (optional, test-only) injects connect faults at
  /// Site::kRpcConnect and request-frame faults at Site::kRpcRequest.
  /// `obs` (optional) exposes the falkon.net.rpc.inflight gauge.
  static Result<RpcClient> connect(const std::string& host, std::uint16_t port,
                                   fault::FaultInjector* fault = nullptr,
                                   obs::Obs* obs = nullptr);

  RpcClient(RpcClient&&) noexcept;
  RpcClient& operator=(RpcClient&&) noexcept;
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Send a request, wait for the reply. Safe to call from many threads
  /// concurrently; calls overlap on the wire. An ErrorReply from the server
  /// is surfaced as a failed Status with the carried code.
  Result<wire::Message> call(const wire::Message& request);

  /// Sever the connection; in-flight and future calls fail.
  void close();

 private:
  struct Impl;
  explicit RpcClient(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
};

struct PushServerOptions {
  /// Run on this shared reactor instead of owning one. The watermark
  /// fields only apply to an owned reactor.
  Reactor* reactor{nullptr};
  std::size_t high_watermark_bytes{8u << 20};
  std::size_t low_watermark_bytes{1u << 20};
};

/// Dispatcher-side notification fan-out. Executors connect and send one
/// subscription frame (a Notify carrying their executor id); afterwards the
/// dispatcher pushes frames to them by key. Connections are reactor-owned:
/// the subscription frame is decoded on the loop (no handshake threads) and
/// pushes drain through the connection outbox, which also serialises the
/// stream so concurrent pushes can never interleave bytes mid-frame. A
/// subscriber whose outbox is past the high watermark has new notifications
/// shed (falkon.net.push.backpressure_drops) — a lost notification is
/// recoverable, the dispatcher's stale-notification sweep re-sends it.
class PushServer {
 public:
  PushServer() = default;
  ~PushServer();

  PushServer(const PushServer&) = delete;
  PushServer& operator=(const PushServer&) = delete;

  /// `fault` (optional, test-only) injects push-frame faults at
  /// Site::kPushFrame (drop = the notification silently vanishes).
  /// `obs` (optional) feeds falkon.net.frames_coalesced and
  /// falkon.net.push.backpressure_drops.
  Status start(std::uint16_t port = 0, fault::FaultInjector* fault = nullptr,
               obs::Obs* obs = nullptr, PushServerOptions options = {});
  void stop();

  /// Push a message to subscriber `key`; kNotFound if no such subscriber.
  Status push(std::uint64_t key, const wire::Message& message);

  void drop_subscriber(std::uint64_t key);
  [[nodiscard]] std::size_t subscriber_count() const;
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

 private:
  void on_accept(int fd);
  void on_frame(const std::shared_ptr<Reactor::Conn>& conn,
                std::vector<std::uint8_t>&& payload);
  void on_close(const std::shared_ptr<Reactor::Conn>& conn);

  TcpListener listener_;
  fault::FaultInjector* fault_{nullptr};
  obs::Counter* m_bp_drops_{nullptr};
  std::unique_ptr<Reactor> owned_reactor_;
  Reactor* reactor_{nullptr};
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Reactor::Conn>>
      subscribers_;
  std::vector<std::weak_ptr<Reactor::Conn>> connections_;
  std::atomic<bool> stopping_{false};
  bool started_{false};
};

/// Executor-side notification listener: connects, subscribes, then invokes
/// a callback for every pushed message on a background thread.
class PushReceiver {
 public:
  using Callback = std::function<void(const wire::Message&)>;

  PushReceiver() = default;
  ~PushReceiver();

  PushReceiver(const PushReceiver&) = delete;
  PushReceiver& operator=(const PushReceiver&) = delete;

  Status start(const std::string& host, std::uint16_t port, std::uint64_t key,
               Callback callback);
  void stop();

 private:
  void read_loop();

  std::shared_ptr<TcpStream> stream_;
  Callback callback_;
  std::thread read_thread_;
  std::atomic<bool> stopping_{false};
};

}  // namespace falkon::net
