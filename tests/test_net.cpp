// TCP substrate tests: sockets, the reactor event loop, RPC
// request/response, push notifications, and the watermark backpressure and
// fd-exhaustion paths of the server side.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "net/rpc.h"
#include "net/socket.h"
#include "obs/obs.h"
#include "wire/framing.h"

namespace falkon::net {
namespace {

TEST(Socket, ListenerPicksEphemeralPort) {
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.ok());
  EXPECT_GT(listener.value().port(), 0);
}

TEST(Socket, ConnectRefusedOnClosedPort) {
  // Bind then immediately close to learn a (probably) dead port.
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value().port();
  listener.value().close();
  auto stream = TcpStream::connect("127.0.0.1", port);
  EXPECT_FALSE(stream.ok());
}

TEST(Rpc, EchoCallRoundtrip) {
  RpcServer server;
  ASSERT_TRUE(server
                  .start([](const wire::Message& request) -> wire::Message {
                    if (const auto* notify = std::get_if<wire::Notify>(&request)) {
                      return wire::Notify{notify->executor_id,
                                          notify->resource_key + 1};
                    }
                    return wire::ErrorReply{ErrorCode::kProtocolError, "?"};
                  })
                  .ok());

  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto reply = client.value().call(wire::Notify{ExecutorId{5}, 41});
  ASSERT_TRUE(reply.ok());
  const auto* notify = std::get_if<wire::Notify>(&reply.value());
  ASSERT_NE(notify, nullptr);
  EXPECT_EQ(notify->resource_key, 42u);
  server.stop();
}

TEST(Rpc, ServerErrorReplySurfacesAsStatus) {
  RpcServer server;
  ASSERT_TRUE(server
                  .start([](const wire::Message&) -> wire::Message {
                    return wire::ErrorReply{ErrorCode::kNotFound, "nope"};
                  })
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto reply = client.value().call(wire::StatusRequest{});
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::kNotFound);
  server.stop();
}

TEST(Rpc, ManySequentialCallsOnOneConnection) {
  std::atomic<int> handled{0};
  RpcServer server;
  ASSERT_TRUE(server
                  .start([&](const wire::Message&) -> wire::Message {
                    handled.fetch_add(1);
                    return wire::StatusReply{};
                  })
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client.value().call(wire::StatusRequest{}).ok());
  }
  EXPECT_EQ(handled.load(), 200);
  server.stop();
}

TEST(Rpc, MultipleConcurrentClients) {
  RpcServer server;
  ASSERT_TRUE(server
                  .start([](const wire::Message&) -> wire::Message {
                    return wire::StatusReply{};
                  })
                  .ok());
  std::vector<std::thread> threads;
  std::atomic<int> successes{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      auto client = RpcClient::connect("127.0.0.1", server.port());
      if (!client.ok()) return;
      for (int i = 0; i < 50; ++i) {
        if (client.value().call(wire::StatusRequest{}).ok()) {
          successes.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(successes.load(), 8 * 50);
  server.stop();
}

TEST(Rpc, PipelinedCallsShareOneConnection) {
  // Many threads issue calls through ONE client: all calls multiplex over a
  // single connection (correlation ids demux the replies) and every caller
  // gets its own answer back.
  RpcServerOptions options;
  options.handler_threads = 4;
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [](const wire::Message& request) -> wire::Message {
                        const auto* notify = std::get_if<wire::Notify>(&request);
                        if (notify == nullptr) {
                          return wire::ErrorReply{ErrorCode::kProtocolError, "?"};
                        }
                        return wire::Notify{notify->executor_id,
                                            notify->resource_key * 2};
                      },
                      0, nullptr, options)
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  std::atomic<int> correct{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < 50; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>(t) * 1000 + i;
        auto reply = client.value().call(wire::Notify{ExecutorId{1}, key});
        if (!reply.ok()) continue;
        const auto* notify = std::get_if<wire::Notify>(&reply.value());
        if (notify != nullptr && notify->resource_key == key * 2) {
          correct.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(correct.load(), 8 * 50);
  EXPECT_EQ(server.active_connections(), 1u);
  server.stop();
}

TEST(Rpc, OutOfOrderRepliesRouteByCorrelationId) {
  // A pooled server finishes a fast call while a slow one is still being
  // handled on the same connection; the fast reply overtakes the slow one
  // on the wire and the client must route both correctly.
  constexpr std::uint64_t kSlowKey = 1;
  constexpr std::uint64_t kFastKey = 2;
  RpcServerOptions options;
  options.handler_threads = 2;
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [&](const wire::Message& request) -> wire::Message {
                        const auto* notify = std::get_if<wire::Notify>(&request);
                        if (notify == nullptr) {
                          return wire::ErrorReply{ErrorCode::kProtocolError, "?"};
                        }
                        if (notify->resource_key == kSlowKey) {
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(300));
                        }
                        return *notify;
                      },
                      0, nullptr, options)
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  std::mutex mu;
  std::vector<std::uint64_t> completion_order;
  std::thread slow([&] {
    auto reply = client.value().call(wire::Notify{ExecutorId{1}, kSlowKey});
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(std::get_if<wire::Notify>(&reply.value())->resource_key, kSlowKey);
    std::lock_guard lock(mu);
    completion_order.push_back(kSlowKey);
  });
  // Give the slow call time to reach the server before racing it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto reply = client.value().call(wire::Notify{ExecutorId{1}, kFastKey});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(std::get_if<wire::Notify>(&reply.value())->resource_key, kFastKey);
  {
    std::lock_guard lock(mu);
    completion_order.push_back(kFastKey);
  }
  slow.join();
  ASSERT_EQ(completion_order.size(), 2u);
  EXPECT_EQ(completion_order[0], kFastKey);  // overtook the slow call
  EXPECT_EQ(completion_order[1], kSlowKey);
  server.stop();
}

TEST(Rpc, CorruptReplyFailsOnlyItsOwnCall) {
  // Reply #3 is corrupted in-flight (payload bytes flipped, framing intact):
  // exactly that call fails with a protocol error; earlier and later calls
  // on the SAME connection succeed — the stream never desynchronises.
  fault::FaultPlan plan;
  plan.at(fault::Site::kRpcReply, fault::Action::kCorrupt, /*nth_op=*/3);
  fault::FaultInjector inject(plan);
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [](const wire::Message&) -> wire::Message {
                        return wire::StatusReply{};
                      },
                      0, &inject)
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  for (int i = 1; i <= 5; ++i) {
    auto reply = client.value().call(wire::StatusRequest{});
    if (i == 3) {
      ASSERT_FALSE(reply.ok()) << "corrupted reply must fail its call";
      EXPECT_EQ(reply.error().code, ErrorCode::kProtocolError);
    } else {
      EXPECT_TRUE(reply.ok()) << "call " << i << ": " << (reply.ok() ? "" : reply.error().str());
    }
  }
  server.stop();
}

TEST(Rpc, DroppedReplyFailsEveryCallInFlight) {
  // A dropped reply severs the stream (fault semantics at kRpcReply): every
  // call in flight on that connection fails — they were all mapped to the
  // lost stream — and the client stays broken rather than silently hanging.
  fault::FaultPlan plan;
  plan.at(fault::Site::kRpcReply, fault::Action::kDrop, /*nth_op=*/2);
  fault::FaultInjector inject(plan);
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [](const wire::Message&) -> wire::Message {
                        return wire::StatusReply{};
                      },
                      0, &inject)
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client.value().call(wire::StatusRequest{}).ok());

  // Two concurrent calls: reply #2's flush severs the connection, so BOTH
  // fail — one by the drop itself, the other by the stream's death.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      if (!client.value().call(wire::StatusRequest{}).ok()) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 2);
  // The connection is gone for good; later calls fail fast, never hang.
  EXPECT_FALSE(client.value().call(wire::StatusRequest{}).ok());
  server.stop();
}

TEST(Rpc, InflightGaugeRegistersWithObs) {
  obs::Obs obs;
  RpcServer server;
  ASSERT_TRUE(server
                  .start([](const wire::Message&) -> wire::Message {
                    return wire::StatusReply{};
                  })
                  .ok());
  auto client = RpcClient::connect("127.0.0.1", server.port(), nullptr, &obs);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().call(wire::StatusRequest{}).ok());
  // After a completed call the gauge exists and reads zero in flight.
  EXPECT_EQ(obs.registry().gauge("falkon.net.rpc.inflight").value(), 0.0);
  server.stop();
}

TEST(Push, SubscribeAndReceiveNotifications) {
  PushServer server;
  ASSERT_TRUE(server.start().ok());

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::uint64_t> received;

  PushReceiver receiver;
  ASSERT_TRUE(receiver
                  .start("127.0.0.1", server.port(), /*key=*/77,
                         [&](const wire::Message& message) {
                           if (const auto* notify =
                                   std::get_if<wire::Notify>(&message)) {
                             std::lock_guard lock(mu);
                             received.push_back(notify->resource_key);
                             cv.notify_all();
                           }
                         })
                  .ok());

  // Subscription is asynchronous; wait for it to land.
  for (int i = 0; i < 100 && server.subscriber_count() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.subscriber_count(), 1u);

  for (std::uint64_t k = 1; k <= 5; ++k) {
    ASSERT_TRUE(server.push(77, wire::Notify{ExecutorId{77}, k}).ok());
  }
  {
    std::unique_lock lock(mu);
    cv.wait_for(lock, std::chrono::seconds(5),
                [&] { return received.size() == 5; });
    ASSERT_EQ(received.size(), 5u);
    EXPECT_EQ(received.back(), 5u);
  }
  receiver.stop();
  server.stop();
}

TEST(Push, PushToUnknownKeyFails) {
  PushServer server;
  ASSERT_TRUE(server.start().ok());
  auto status = server.push(12345, wire::Notify{});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kNotFound);
  server.stop();
}

TEST(Reactor, TimersFireOnceAndPeriodicallyUntilCancelled) {
  Reactor reactor;
  ASSERT_TRUE(reactor.start().ok());
  std::atomic<int> once{0};
  std::atomic<int> ticks{0};
  reactor.add_timer(0.01, [&] { once.fetch_add(1); });
  const TimerId periodic = reactor.add_periodic(0.005, [&] {
    ticks.fetch_add(1);
  });
  for (int i = 0; i < 1000 && (once.load() < 1 || ticks.load() < 3); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(once.load(), 1);
  EXPECT_GE(ticks.load(), 3);
  reactor.cancel_timer(periodic);
  reactor.barrier();  // cancellation processed on the loop
  const int after_cancel = ticks.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(ticks.load(), after_cancel);
  reactor.stop();
}

TEST(Rpc, AcceptBackoffOnFdExhaustionThenRecovers) {
  // EMFILE on accept must pause the listener with backoff (counting
  // falkon.net.accept_rejected) instead of spinning or dying, and the
  // pending connection must complete once descriptors free up.
  obs::Obs obs;
  RpcServerOptions options;
  options.obs = &obs;
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [](const wire::Message&) -> wire::Message {
                        return wire::StatusReply{};
                      },
                      0, nullptr, options)
                  .ok());
  auto& rejected = obs.registry().counter("falkon.net.accept_rejected");
  ASSERT_EQ(rejected.value(), 0u);

  // Lower RLIMIT_NOFILE to just above current usage and hoard the rest,
  // keeping exactly one slot free for the client's own socket.
  rlimit old_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old_limit), 0);
  std::vector<int> hoard;
  {
    long used = 0;
    for (int fd = 0; fd < 4096; ++fd) {
      if (::fcntl(fd, F_GETFD) != -1) used = fd + 1;
    }
    rlimit tight = old_limit;
    tight.rlim_cur = static_cast<rlim_t>(used + 8);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
    int fd = -1;
    while ((fd = ::open("/dev/null", O_RDONLY)) >= 0) hoard.push_back(fd);
    ASSERT_FALSE(hoard.empty());
    ::close(hoard.back());  // the client's slot
    hoard.pop_back();
  }

  // The TCP handshake completes in the kernel backlog; accept4 in the
  // reactor hits EMFILE and backs off.
  auto stream = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(stream.ok());
  for (int i = 0; i < 1000 && rejected.value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(rejected.value(), 1u);

  // Free the descriptors: the next backoff retry adopts the connection and
  // the exchange completes end to end.
  for (int fd : hoard) ::close(fd);
  hoard.clear();
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &old_limit), 0);
  ASSERT_TRUE(wire::write_frame(stream.value(), 1,
                                wire::encode_message(wire::StatusRequest{}))
                  .ok());
  wire::Frame frame;
  ASSERT_TRUE(wire::read_frame(stream.value(), frame).ok());
  EXPECT_EQ(frame.corr, 1u);
  auto reply = wire::decode_message(frame.payload);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(std::holds_alternative<wire::StatusReply>(reply.value()));
  server.stop();
}

TEST(Rpc, WatermarkBackpressureDrainsOversizedRepliesInOrder) {
  // Oversized replies through a tiny SO_SNDBUF and a slow reader: the
  // connection outbox crosses the high watermark, the reactor stops
  // reading the connection (falkon.net.reactor.read_paused), and the
  // backlog drains through partial writev rounds without reordering or
  // corrupting a single frame.
  constexpr std::size_t kReplyBytes = 1u << 20;
  constexpr int kCalls = 6;
  obs::Obs obs;
  RpcServerOptions options;
  options.obs = &obs;
  options.sndbuf_bytes = 4096;
  options.high_watermark_bytes = 64 * 1024;
  options.low_watermark_bytes = 16 * 1024;
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [](const wire::Message& request) -> wire::Message {
                        const auto* notify =
                            std::get_if<wire::Notify>(&request);
                        if (notify == nullptr) {
                          return wire::ErrorReply{ErrorCode::kProtocolError,
                                                  "?"};
                        }
                        wire::WaitResultsReply reply;
                        TaskResult result;
                        result.task_id = TaskId{notify->resource_key};
                        result.stdout_data = std::string(
                            kReplyBytes,
                            static_cast<char>('a' + notify->resource_key % 26));
                        reply.results.push_back(std::move(result));
                        return reply;
                      },
                      0, nullptr, options)
                  .ok());

  auto stream = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(stream.ok());
  // Pipeline every request before reading a single reply byte, so the
  // replies (6 MiB total) pile up behind a ~4 KiB send buffer.
  for (std::uint64_t corr = 1; corr <= kCalls; ++corr) {
    ASSERT_TRUE(wire::write_frame(
                    stream.value(), corr,
                    wire::encode_message(wire::Notify{ExecutorId{corr}, corr}))
                    .ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  wire::Frame frame;
  for (std::uint64_t corr = 1; corr <= kCalls; ++corr) {
    // Slow reader: let the outbox stay backed up between frames.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(wire::read_frame(stream.value(), frame).ok());
    // One shared handler worker => strict FIFO, replies arrive in request
    // order even though the transport stalled mid-frame many times.
    EXPECT_EQ(frame.corr, corr);
    auto reply = wire::decode_message(frame.payload);
    ASSERT_TRUE(reply.ok());
    const auto* results = std::get_if<wire::WaitResultsReply>(&reply.value());
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->results.size(), 1u);
    EXPECT_EQ(results->results[0].task_id.value, corr);
    const std::string expected(
        kReplyBytes, static_cast<char>('a' + corr % 26));
    EXPECT_TRUE(results->results[0].stdout_data == expected)
        << "payload corrupted for corr " << corr;
  }
  EXPECT_GE(obs.registry().counter("falkon.net.reactor.read_paused").value(),
            1u);
  server.stop();
}

TEST(Push, SlowSubscriberShedsInsteadOfBlocking) {
  // A subscriber that never reads must not wedge the dispatcher: once its
  // outbox passes the high watermark, push() sheds notifications (counted
  // in falkon.net.push.backpressure_drops) and returns immediately.
  obs::Obs obs;
  PushServerOptions options;
  options.high_watermark_bytes = 64 * 1024;
  options.low_watermark_bytes = 16 * 1024;
  PushServer server;
  ASSERT_TRUE(server.start(0, nullptr, &obs, options).ok());

  auto stream = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(wire::write_frame(stream.value(),
                                wire::encode_message(
                                    wire::Notify{ExecutorId{7}, 0}))
                  .ok());
  for (int i = 0; i < 200 && server.subscriber_count() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.subscriber_count(), 1u);

  auto& drops =
      obs.registry().counter("falkon.net.push.backpressure_drops");
  wire::WaitResultsReply big;
  TaskResult result;
  result.stdout_data = std::string(256 * 1024, 'x');
  big.results.push_back(std::move(result));
  for (int i = 0; i < 200 && drops.value() == 0; ++i) {
    // Never blocks and never errors: a full subscriber is shed, not waited
    // on (the stale-notification sweep re-delivers).
    ASSERT_TRUE(server.push(7, big).ok());
  }
  EXPECT_GE(drops.value(), 1u);
  EXPECT_EQ(server.subscriber_count(), 1u);
  server.stop();
}

TEST(Rpc, WatermarkBackpressureIsolatedPerConnection) {
  // Two connections on the one loop: one wedges itself behind a tiny
  // SO_SNDBUF with oversized replies it never reads (the loop pauses
  // reading it), while the other keeps completing fast roundtrips — a
  // stalled connection's backlog must never leak backpressure into
  // another connection.
  constexpr std::size_t kReplyBytes = 1u << 20;
  obs::Obs obs;
  RpcServerOptions options;
  options.obs = &obs;
  options.handler_threads = 2;
  options.sndbuf_bytes = 4096;
  options.high_watermark_bytes = 64 * 1024;
  options.low_watermark_bytes = 16 * 1024;
  RpcServer server;
  ASSERT_TRUE(server
                  .start(
                      [](const wire::Message& request) -> wire::Message {
                        const auto* notify =
                            std::get_if<wire::Notify>(&request);
                        if (notify == nullptr) {
                          return wire::ErrorReply{ErrorCode::kProtocolError,
                                                  "?"};
                        }
                        if (notify->resource_key == 0) {
                          // Fast path: tiny echo.
                          return wire::StatusReply{};
                        }
                        wire::WaitResultsReply reply;
                        TaskResult result;
                        result.task_id = TaskId{notify->resource_key};
                        result.stdout_data = std::string(kReplyBytes, 'x');
                        reply.results.push_back(std::move(result));
                        return reply;
                      },
                      0, nullptr, options)
                  .ok());

  // Slow connection: pipeline six 1 MiB replies and never read a byte.
  auto slow = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(slow.ok());
  for (std::uint64_t corr = 1; corr <= 6; ++corr) {
    ASSERT_TRUE(wire::write_frame(
                    slow.value(), corr,
                    wire::encode_message(wire::Notify{ExecutorId{1}, corr}))
                    .ok());
  }
  auto& paused = obs.registry().counter("falkon.net.reactor.read_paused");
  for (int i = 0; i < 1000 && paused.value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(paused.value(), 1u);

  // Fast connection: every echo completes while the slow connection sits
  // read-paused with a full outbox.
  auto fast = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(fast.ok());
  for (int i = 0; i < 100; ++i) {
    auto reply = fast.value().call(wire::Notify{ExecutorId{2}, 0});
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(std::holds_alternative<wire::StatusReply>(reply.value()));
  }
  fast.value().close();
  server.stop();
}

TEST(Push, NotifyFromForeignThreadReachesEverySubscriber) {
  // PushServer::push() is called from dispatcher threads, never the loop:
  // every frame must still drain through the loop's flush path and out
  // the subscriber's own socket.
  Reactor reactor;
  ASSERT_TRUE(reactor.start().ok());
  PushServerOptions options;
  options.reactor = &reactor;
  PushServer server;
  ASSERT_TRUE(server.start(0, nullptr, nullptr, options).ok());

  constexpr int kSubscribers = 8;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::uint64_t> received;
  std::vector<PushReceiver> receivers(kSubscribers);
  for (int key = 0; key < kSubscribers; ++key) {
    ASSERT_TRUE(receivers[static_cast<std::size_t>(key)]
                    .start("127.0.0.1", server.port(),
                           static_cast<std::uint64_t>(key),
                           [&, key](const wire::Message& message) {
                             const auto* notify =
                                 std::get_if<wire::Notify>(&message);
                             if (notify == nullptr) return;
                             std::lock_guard<std::mutex> lock(mu);
                             received.push_back(
                                 static_cast<std::uint64_t>(key) * 1000 +
                                 notify->resource_key);
                             cv.notify_all();
                           })
                    .ok());
  }
  for (int i = 0; i < 1000 && server.subscriber_count() < kSubscribers; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(server.subscriber_count(),
            static_cast<std::size_t>(kSubscribers));

  // Push to every key from this (non-loop) thread.
  for (int key = 0; key < kSubscribers; ++key) {
    ASSERT_TRUE(
        server
            .push(static_cast<std::uint64_t>(key),
                  wire::Notify{ExecutorId{static_cast<std::uint64_t>(key)},
                               static_cast<std::uint64_t>(key) + 7})
            .ok());
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] {
      return received.size() >= static_cast<std::size_t>(kSubscribers);
    }));
    std::vector<std::uint64_t> sorted = received;
    std::sort(sorted.begin(), sorted.end());
    for (int key = 0; key < kSubscribers; ++key) {
      EXPECT_EQ(sorted[static_cast<std::size_t>(key)],
                static_cast<std::uint64_t>(key) * 1000 +
                    static_cast<std::uint64_t>(key) + 7);
    }
  }
  for (auto& receiver : receivers) receiver.stop();
  server.stop();
  reactor.stop();
}

TEST(Push, DropSubscriberSeversChannel) {
  PushServer server;
  ASSERT_TRUE(server.start().ok());
  PushReceiver receiver;
  ASSERT_TRUE(receiver.start("127.0.0.1", server.port(), 9,
                             [](const wire::Message&) {}).ok());
  for (int i = 0; i < 100 && server.subscriber_count() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.subscriber_count(), 1u);
  server.drop_subscriber(9);
  EXPECT_EQ(server.subscriber_count(), 0u);
  EXPECT_FALSE(server.push(9, wire::Notify{}).ok());
  receiver.stop();
  server.stop();
}

}  // namespace
}  // namespace falkon::net
