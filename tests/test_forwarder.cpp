// Three-tier architecture tests (paper section 6): a forwarder fronting
// multiple dispatchers, each with its own disjoint executor pool — over
// in-process backends, over TCP backends, and composed hierarchically.
#include <gtest/gtest.h>

#include <set>

#include "common/clock.h"
#include "core/forwarder.h"
#include "core/service.h"
#include "core/service_tcp.h"

namespace falkon::core {
namespace {

std::vector<TaskSpec> sleep_tasks(int count, std::uint64_t first_id = 1) {
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < count; ++i) {
    tasks.push_back(
        make_sleep_task(TaskId{first_id + static_cast<std::uint64_t>(i)}, 0.0));
  }
  return tasks;
}

InProcFalkon::EngineFactory noop_factory() {
  return [](Clock&) { return std::make_unique<NoopEngine>(); };
}

InProcFalkon::EngineFactory sleep_factory() {
  return [](Clock& clock) { return std::make_unique<SleepEngine>(clock); };
}

class ForwarderTest : public ::testing::Test {
 protected:
  void add_cluster(int executors,
                   InProcFalkon::EngineFactory factory = noop_factory()) {
    auto cluster = std::make_unique<InProcFalkon>(clock_, DispatcherConfig{});
    EXPECT_TRUE(
        cluster->add_executors(executors, factory, ExecutorOptions{})
            .ok());
    clients_.push_back(&cluster->client());
    clusters_.push_back(std::move(cluster));
  }

  RealClock clock_;
  std::vector<std::unique_ptr<InProcFalkon>> clusters_;
  std::vector<DispatcherClient*> clients_;
};

TEST_F(ForwarderTest, NoBackendsIsUnavailable) {
  Forwarder forwarder({});
  auto instance = forwarder.create_instance(ClientId{1});
  ASSERT_FALSE(instance.ok());
  EXPECT_EQ(instance.error().code, ErrorCode::kUnavailable);
}

TEST_F(ForwarderTest, TasksSpreadAcrossClustersAndAllComplete) {
  add_cluster(2);
  add_cluster(2);
  add_cluster(2);
  Forwarder forwarder(clients_, RoutingPolicy::kRoundRobin);

  SessionOptions options;
  options.bundle_size = 10;  // many bundles -> every backend gets some
  auto session = FalkonSession::open(forwarder, ClientId{1}, options);
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(300), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();

  std::set<std::uint64_t> ids;
  for (const auto& result : results.value()) ids.insert(result.task_id.value);
  EXPECT_EQ(ids.size(), 300u);  // exactly once, across all clusters

  const auto routed = forwarder.routed_counts();
  ASSERT_EQ(routed.size(), 3u);
  for (auto count : routed) EXPECT_EQ(count, 100u);  // round-robin balance
}

TEST_F(ForwarderTest, AggregatedStatus) {
  add_cluster(3);
  add_cluster(5);
  Forwarder forwarder(clients_);
  auto status = forwarder.status();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().registered_executors, 8u);
}

TEST_F(ForwarderTest, LeastLoadedPrefersIdleCluster) {
  // Cluster 0 really sleeps, so its pre-load below is a backlog that lasts
  // (50 x 0.05 s over 2 executors, ~1.25 s) until the forwarder routes. On
  // NoopEngine the sleeps cost nothing: under a loaded `ctest -j` the
  // queue could drain first, both loads would tie at 0, and the tie goes
  // to backend 0.
  add_cluster(2, sleep_factory());
  add_cluster(2);
  Forwarder forwarder(clients_, RoutingPolicy::kLeastLoaded);
  auto session = FalkonSession::open(forwarder, ClientId{1});
  ASSERT_TRUE(session.ok());

  // Pre-load cluster 0 directly with slow work so it reports backlog.
  auto direct = FalkonSession::open(*clients_[0], ClientId{2});
  ASSERT_TRUE(direct.ok());
  std::vector<TaskSpec> slow;
  for (int i = 0; i < 50; ++i) {
    slow.push_back(make_sleep_task(TaskId{static_cast<std::uint64_t>(5000 + i)},
                                   0.05));
  }
  ASSERT_TRUE(direct.value()->submit(std::move(slow)).ok());

  ASSERT_TRUE(session.value()->submit(sleep_tasks(20)).ok());
  auto results = session.value()->wait(20, 30.0);
  ASSERT_TRUE(results.ok());

  const auto routed = forwarder.routed_counts();
  // The loaded cluster should have received none (or nearly none) of the
  // forwarder's tasks.
  EXPECT_GT(routed[1], routed[0]);
}

TEST_F(ForwarderTest, HierarchicalForwarderOfForwarders) {
  add_cluster(1);
  add_cluster(1);
  add_cluster(1);
  add_cluster(1);
  Forwarder left({clients_[0], clients_[1]});
  Forwarder right({clients_[2], clients_[3]});
  Forwarder root({&left, &right});

  SessionOptions options;
  options.bundle_size = 5;
  auto session = FalkonSession::open(root, ClientId{1}, options);
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(100), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  std::set<std::uint64_t> ids;
  for (const auto& result : results.value()) ids.insert(result.task_id.value);
  EXPECT_EQ(ids.size(), 100u);

  // Work reached all four leaf clusters.
  for (const auto& cluster : clusters_) {
    EXPECT_GT(cluster->dispatcher().status().completed, 0u);
  }
}

TEST_F(ForwarderTest, DestroyInstanceCleansAllBackends) {
  add_cluster(1);
  add_cluster(1);
  Forwarder forwarder(clients_);
  auto instance = forwarder.create_instance(ClientId{1});
  ASSERT_TRUE(instance.ok());
  EXPECT_TRUE(forwarder.destroy_instance(instance.value()).ok());
  EXPECT_FALSE(forwarder.destroy_instance(instance.value()).ok());
  // Backend instances are gone too: a direct submit to them must fail.
  auto submit = forwarder.submit(instance.value(), sleep_tasks(1));
  EXPECT_FALSE(submit.ok());
}

TEST_F(ForwarderTest, WorksOverTcpBackends) {
  // Two dispatchers behind TCP servers, each with one TCP executor; the
  // forwarder talks to both through TcpDispatcherClient stubs.
  RealClock clock;
  Dispatcher d1(clock, DispatcherConfig{});
  Dispatcher d2(clock, DispatcherConfig{});
  TcpDispatcherServer s1(d1);
  TcpDispatcherServer s2(d2);
  ASSERT_TRUE(s1.start().ok());
  ASSERT_TRUE(s2.start().ok());
  TcpExecutorHarness e1(clock, "127.0.0.1", s1.rpc_port(), s1.push_port(),
                        std::make_unique<NoopEngine>(), ExecutorOptions{});
  TcpExecutorHarness e2(clock, "127.0.0.1", s2.rpc_port(), s2.push_port(),
                        std::make_unique<NoopEngine>(), ExecutorOptions{});
  ASSERT_TRUE(e1.start().ok());
  ASSERT_TRUE(e2.start().ok());
  auto c1 = TcpDispatcherClient::connect("127.0.0.1", s1.rpc_port());
  auto c2 = TcpDispatcherClient::connect("127.0.0.1", s2.rpc_port());
  ASSERT_TRUE(c1.ok() && c2.ok());

  Forwarder forwarder({c1.value().get(), c2.value().get()});
  SessionOptions options;
  options.bundle_size = 10;
  auto session = FalkonSession::open(forwarder, ClientId{1}, options);
  ASSERT_TRUE(session.ok());
  auto results = session.value()->run(sleep_tasks(100), 30.0);
  ASSERT_TRUE(results.ok()) << results.error().str();
  EXPECT_EQ(results.value().size(), 100u);
  EXPECT_GT(d1.status().completed, 0u);
  EXPECT_GT(d2.status().completed, 0u);

  e1.stop();
  e2.stop();
  s1.stop();
  s2.stop();
}

}  // namespace
}  // namespace falkon::core
