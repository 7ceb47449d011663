// Cluster-level behavior: membership + routing correctness (sessions
// stick, keys rebalance only on membership change), kill-a-node-under-load
// with zero client-visible failures, per-node chaos stress, and a
// differential check that routed answers are byte-identical to
// single-node answers. Test names carry the "Cluster" marker (ctest label
// `cluster`); "Stress" additionally labels them `stress`.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "cluster_fixture.h"

namespace hedc::cluster {
namespace {

TEST(ClusterMembershipTest, EpochMovesOnMembershipAndHealthChangesOnly) {
  MetricsRegistry metrics;
  MembershipRegistry membership(&metrics);
  EXPECT_EQ(membership.epoch(), 0);
  NodeInfo a;
  a.name = "dm0";
  a.port = 1111;
  int id_a = membership.Join(a);
  int64_t epoch = membership.epoch();
  EXPECT_GT(epoch, 0);

  // Same-value health set is not a flip: epoch stays put.
  EXPECT_FALSE(membership.SetHealth(id_a, true));
  EXPECT_EQ(membership.epoch(), epoch);
  EXPECT_TRUE(membership.SetHealth(id_a, false));
  EXPECT_GT(membership.epoch(), epoch);
  EXPECT_EQ(membership.healthy_count(), 0u);
  EXPECT_TRUE(membership.SetHealth(id_a, true));

  epoch = membership.epoch();
  EXPECT_TRUE(membership.UpdateAddress(id_a, 2222));
  EXPECT_GT(membership.epoch(), epoch);
  EXPECT_EQ(membership.Get(id_a).value().port, 2222);

  EXPECT_TRUE(membership.Leave(id_a));
  EXPECT_EQ(membership.size(), 0u);
  EXPECT_FALSE(membership.Leave(id_a));
  EXPECT_EQ(metrics.GetGauge("cluster.members")->Value(), 0);
}

TEST(ClusterConfigTest, OptionsParseFromConfigKnobs) {
  auto config = Config::Parse("cluster.nodes = 4\n"
                              "cluster.routing = consistent_hash\n"
                              "cluster.virtual_points = 17\n"
                              "cluster.wal_dir = data/cluster-wal\n");
  ASSERT_TRUE(config.ok());
  ClusterOptions options = ClusterOptions::FromConfig(config.value());
  EXPECT_EQ(options.nodes, 4);
  EXPECT_EQ(options.routing, RoutingPolicy::kConsistentHash);
  EXPECT_EQ(options.virtual_points, 17);
  EXPECT_EQ(options.node.wal_dir, "data/cluster-wal");

  // Unknown routing name falls back to the default, not a crash.
  Config bad;
  bad.Set("cluster.routing", "round_robin");
  EXPECT_EQ(ClusterOptions::FromConfig(bad).routing,
            RoutingPolicy::kLeastLoaded);
  EXPECT_FALSE(ParseRoutingPolicy("round_robin").ok());
}

TEST(ClusterRoutingTest, SessionSticksToOneNodeUnderBothPolicies) {
  for (RoutingPolicy policy :
       {RoutingPolicy::kLeastLoaded, RoutingPolicy::kConsistentHash}) {
    MembershipRegistry membership;
    for (int i = 0; i < 3; ++i) {
      NodeInfo info;
      info.name = "dm" + std::to_string(i);
      info.port = 1000 + i;
      membership.Join(info);
    }
    SessionRouter router(&membership, policy);
    std::set<int> used;
    for (int s = 0; s < 32; ++s) {
      std::string key = "session-" + std::to_string(s);
      auto first = router.Route(key);
      ASSERT_TRUE(first.ok());
      used.insert(first.value().node_id);
      for (int repeat = 0; repeat < 10; ++repeat) {
        auto again = router.Route(key);
        ASSERT_TRUE(again.ok());
        EXPECT_EQ(again.value().node_id, first.value().node_id)
            << RoutingPolicyName(policy) << " moved " << key;
      }
    }
    // The session population spreads across the cluster, not one node.
    EXPECT_GT(used.size(), 1u) << RoutingPolicyName(policy);
  }
}

TEST(ClusterRoutingTest, LeastLoadedBalancesStickyAssignments) {
  MembershipRegistry membership;
  for (int i = 0; i < 4; ++i) {
    NodeInfo info;
    info.name = "dm" + std::to_string(i);
    membership.Join(info);
  }
  SessionRouter router(&membership, RoutingPolicy::kLeastLoaded);
  for (int s = 0; s < 40; ++s) {
    ASSERT_TRUE(router.Route("s" + std::to_string(s)).ok());
  }
  // 40 sessions over 4 nodes place exactly 10 each: every new key goes to
  // the node with the fewest sticky assignments.
  for (const auto& [id, count] : router.AssignmentCounts()) {
    EXPECT_EQ(count, 10) << "node " << id;
  }
}

TEST(ClusterRoutingTest, KeysRebalanceOnlyOnMembershipChange) {
  MembershipRegistry membership;
  std::vector<int> ids;
  for (int i = 0; i < 4; ++i) {
    NodeInfo info;
    info.name = "dm" + std::to_string(i);
    ids.push_back(membership.Join(info));
  }
  SessionRouter router(&membership, RoutingPolicy::kConsistentHash);

  auto snapshot = [&router] {
    std::map<std::string, int> owners;
    for (int k = 0; k < 200; ++k) {
      std::string key = "key-" + std::to_string(k);
      auto routed = router.Route(key);
      EXPECT_TRUE(routed.ok());
      owners[key] = routed.value().node_id;
    }
    return owners;
  };

  std::map<std::string, int> before = snapshot();
  // No membership change: repeated routing is bit-for-bit stable.
  EXPECT_EQ(snapshot(), before);

  // One node goes down: exactly its keys move, everyone else's stay.
  int down = ids[1];
  membership.SetHealth(down, false);
  std::map<std::string, int> during = snapshot();
  int moved = 0;
  for (const auto& [key, owner] : before) {
    if (owner == down) {
      EXPECT_NE(during[key], down) << key;
      ++moved;
    } else {
      EXPECT_EQ(during[key], owner) << key;
    }
  }
  EXPECT_GT(moved, 0);

  // Recovery: the ring kept the downed node's points, so its keys return
  // and the mapping is exactly the original one.
  membership.SetHealth(down, true);
  EXPECT_EQ(snapshot(), before);
}

TEST(ClusterRoutingTest, FallbackOrderSkipsUnhealthyAndExcludesPrimary) {
  MembershipRegistry membership;
  std::vector<int> ids;
  for (int i = 0; i < 4; ++i) {
    NodeInfo info;
    info.name = "dm" + std::to_string(i);
    ids.push_back(membership.Join(info));
  }
  for (RoutingPolicy policy :
       {RoutingPolicy::kLeastLoaded, RoutingPolicy::kConsistentHash}) {
    SessionRouter router(&membership, policy);
    std::vector<NodeInfo> order = router.FallbackOrder(ids[0]);
    ASSERT_EQ(order.size(), 3u) << RoutingPolicyName(policy);
    for (const NodeInfo& info : order) EXPECT_NE(info.node_id, ids[0]);

    membership.SetHealth(ids[2], false);
    order = router.FallbackOrder(ids[0]);
    ASSERT_EQ(order.size(), 2u) << RoutingPolicyName(policy);
    for (const NodeInfo& info : order) {
      EXPECT_NE(info.node_id, ids[0]);
      EXPECT_NE(info.node_id, ids[2]);
    }
    membership.SetHealth(ids[2], true);
  }
}

TEST(ClusterTest, BootsNodesAndRoutesInProcess) {
  ClusterFixtureOptions options;
  options.nodes = 3;
  ClusterFixture cluster(options);
  cluster.Start();
  EXPECT_EQ(cluster.runner().num_nodes(), 3u);
  EXPECT_EQ(cluster.runner().membership().healthy_count(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    ClusterNode* node = cluster.runner().node(static_cast<int>(i));
    ASSERT_NE(node, nullptr);
    EXPECT_TRUE(node->serving());
    EXPECT_GT(node->port(), 0);
  }

  // In-process dispatch resolves to a member DM and counts per node.
  auto routed = cluster.runner().RouteInProcess("some-session");
  ASSERT_TRUE(routed.ok());
  ASSERT_NE(routed.value(), nullptr);
  std::string name = routed.value()->name();
  EXPECT_EQ(cluster.metrics()->GetCounter("cluster.routed." + name)->Value(),
            1);
}

// Differential check: a query routed over real TCP returns byte-identical
// results (wire encoding included) to the same query run directly against
// a single node's database.
TEST(ClusterTest, RoutedMatchesSingleNodeByteIdentical) {
  ClusterFixtureOptions options;
  options.nodes = 3;
  ClusterFixture cluster(options);
  cluster.Start();
  auto pool = cluster.MakePool();

  for (int64_t i = 0; i < 60; ++i) {
    testbed::ClusterWorkload::Query q = cluster.workload().QueryAt(i);
    auto routed = pool->Execute(q.session_key, q.sql, q.params);
    ASSERT_TRUE(routed.ok()) << "query " << i << ": "
                             << routed.status().ToString();
    auto local = cluster.runner().node(0)->db()->Execute(q.sql, q.params);
    ASSERT_TRUE(local.ok()) << local.status().ToString();

    ByteBuffer routed_bytes;
    ByteBuffer local_bytes;
    dm::EncodeResultSet(routed.value(), &routed_bytes);
    dm::EncodeResultSet(local.value(), &local_bytes);
    ASSERT_EQ(routed_bytes.data(), local_bytes.data())
        << "query " << i << " diverged: " << q.sql;
  }
  EXPECT_EQ(pool->stats().failures, 0);
}

// The headline failure drill: N dynamic nodes, concurrent closed-loop
// clients, one node killed mid-load. Every client call must complete with
// zero visible failures, and after a restart the cluster converges back
// to full membership with the killed node's keys restored.
TEST(ClusterTest, ClusterKillNodeUnderLoadZeroVisibleFailuresStress) {
  ClusterFixtureOptions options;
  options.nodes = 4;
  ClusterFixture cluster(options);
  cluster.Start();

  constexpr int kClients = 4;
  constexpr int kCallsPerClient = 120;
  std::atomic<int64_t> failures{0};
  std::atomic<int64_t> completed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto pool = cluster.MakePool();
      for (int i = 0; i < kCallsPerClient; ++i) {
        int64_t index = c * kCallsPerClient + i;
        testbed::ClusterWorkload::Query q = cluster.workload().QueryAt(index);
        auto rs = pool->Execute(q.session_key, q.sql, q.params);
        if (!rs.ok()) {
          ADD_FAILURE() << "client " << c << " call " << i << ": "
                        << rs.status().ToString();
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Kill one node once the fleet is mid-flight.
  int victim = 2;
  while (completed.load(std::memory_order_relaxed) < kClients * 10) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(cluster.runner().KillNode(victim).ok());
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(cluster.runner().membership().healthy_count(), 3u);
  EXPECT_FALSE(cluster.runner().node(victim)->serving());

  // Restart: fresh ephemeral port, health restored, and the node answers
  // routed traffic again (its data survived the outage).
  ASSERT_TRUE(cluster.runner().RestartNode(victim).ok());
  EXPECT_EQ(cluster.runner().membership().healthy_count(), 4u);
  auto pool = cluster.MakePool();
  int victim_answers = 0;
  for (int k = 0; k < 64; ++k) {
    std::string key = "post-restart-" + std::to_string(k);
    auto owner = cluster.runner().router().Route(key);
    ASSERT_TRUE(owner.ok());
    auto rs = pool->Execute(
        key, "SELECT name FROM users WHERE user_id = ?", {db::Value::Int(1)});
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    ASSERT_EQ(rs.value().num_rows(), 1u);
    // The answering node is exactly the one the router picked.
    EXPECT_EQ(rs.value().rows[0][0].AsText(), owner.value().name);
    if (rs.value().rows[0][0].AsText() ==
        cluster.runner().node(victim)->name()) {
      ++victim_answers;
    }
  }
  EXPECT_GT(victim_answers, 0) << "restarted node never served again";
}

// Chaos on the channels to a single node: drops, delays, duplicates and
// truncations on that path must be absorbed by retries/redirection with
// zero client-visible failures, while the rest of the cluster is clean.
TEST(ClusterTest, ClusterChaosOnOneNodePathStress) {
  ClusterFixtureOptions options;
  options.nodes = 3;
  ClusterFixture cluster(options);
  cluster.Start();

  dm::ChaosOptions chaos;
  chaos.drop_p = 0.08;
  chaos.duplicate_p = 0.04;
  chaos.truncate_p = 0.04;
  chaos.delay_p = 0.1;
  chaos.delay_min = kMicrosPerMilli;
  chaos.delay_max = 5 * kMicrosPerMilli;
  chaos.seed = 1234;
  auto pool = cluster.MakeChaosPool(/*chaos_node_id=*/1, chaos);

  for (int64_t i = 0; i < 200; ++i) {
    testbed::ClusterWorkload::Query q = cluster.workload().QueryAt(i);
    auto rs = pool->Execute(q.session_key, q.sql, q.params);
    ASSERT_TRUE(rs.ok()) << "call " << i << ": " << rs.status().ToString();
  }
  dm::ResilientChannel::Stats stats = pool->stats();
  EXPECT_EQ(stats.failures, 0);
  EXPECT_GT(stats.retries, 0) << "chaos never fired; test is vacuous";
}

}  // namespace
}  // namespace hedc::cluster
