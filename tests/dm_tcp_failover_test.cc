// End-to-end networked call redirection: two DataManager nodes behind
// real TCP servers on loopback, a ResilientChannel client that fails over
// when the primary node is killed mid-call, and remote.* metrics / trace
// spans recorded on both sides of the wire.
#include <gtest/gtest.h>

#include <dirent.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/node.h"
#include "dm/resilient_channel.h"
#include "dm/tcp_remote.h"
#include "tcp_listener.h"

namespace hedc::dm {
namespace {

// One booted cluster node: a full DM stack whose identity user (id 1)
// is `name`, behind a TcpRmiServer.
struct BootedNode : cluster::ClusterNode {
  explicit BootedNode(const std::string& name) : ClusterNode(name, {}) {
    EXPECT_TRUE(Boot().ok());
  }
};

ResilientChannel::Options FailoverOptions() {
  ResilientChannel::Options options;
  options.retry.max_attempts = 6;
  options.retry.initial_backoff = 2 * kMicrosPerMilli;
  options.retry.max_backoff = 10 * kMicrosPerMilli;
  options.failure_threshold = 2;
  options.cooldown = 30 * kMicrosPerSecond;  // stay on the fallback
  return options;
}

TEST(TcpRemoteTest, QueryOverRealSocketRoundTrips) {
  BootedNode node("alpha");
  TcpChannel channel("127.0.0.1", node.port());
  MetricsRegistry client_metrics;
  RemoteDm remote(&channel, &client_metrics);
  remote.set_trace_id(4242);

  auto rs = remote.Execute("SELECT name FROM users WHERE user_id = ?",
                           {db::Value::Int(1)});
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().num_rows(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].AsText(), "alpha");

  // The trace id crossed the wire inside the frame header: the server
  // recorded a dm-remote span under the caller's id.
  bool found = false;
  for (const TraceEvent& event : node.metrics()->traces().SnapshotTrace()) {
    if (event.trace_id == 4242 && event.component == "dm-remote" &&
        event.span == "query") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(node.metrics()->GetCounter("remote.server.calls")->Value(), 1);
  EXPECT_EQ(node.metrics()->GetCounter("remote.server.connections")->Value(),
            1);
}

TEST(TcpRemoteTest, FileReadAndLogOverRealSocket) {
  BootedNode node("beta");
  ASSERT_TRUE(node.dm()->io().WriteItemFile(42, 1, "raw", {9, 8, 7}).ok());
  TcpChannel channel("127.0.0.1", node.port());
  RemoteDm remote(&channel);

  auto data = remote.ReadItemFile(42);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data.value(), (std::vector<uint8_t>{9, 8, 7}));
  EXPECT_TRUE(remote.ReadItemFile(999).status().IsNotFound());
  EXPECT_TRUE(remote.LogOperational("tcp-test", "over the wire").ok());
  auto rs = node.db()->Execute(
      "SELECT COUNT(*) FROM op_logs WHERE component = 'tcp-test'");
  EXPECT_EQ(rs.value().rows[0][0].AsInt(), 1);
}

TEST(TcpRemoteTest, ConnectionRefusedIsUnavailable) {
  net::TcpListener probe;  // grab a port that is then closed again
  ASSERT_TRUE(probe.Listen().ok());
  int dead_port = probe.port();
  probe.Close();

  TcpChannel channel("127.0.0.1", dead_port);
  auto response = channel.Call({1, 2, 3});
  EXPECT_TRUE(response.status().IsUnavailable())
      << response.status().ToString();
}

TEST(TcpRemoteTest, RecvDeadlineYieldsTimeout) {
  // A listener that accepts but never answers.
  net::TcpListener silent;
  ASSERT_TRUE(silent.Listen().ok());
  std::thread sink([&silent] {
    auto accepted = silent.Accept();
    if (accepted.ok()) {
      // Hold the socket open without responding until the test ends.
      auto socket = std::move(accepted).value();
      uint8_t byte;
      while (socket.RecvAll(&byte, 1).ok()) {
      }
    }
  });
  TcpChannel channel("127.0.0.1", silent.port(),
                     /*recv_timeout=*/50 * kMicrosPerMilli);
  auto response = channel.Call({1, 2, 3});
  EXPECT_TRUE(response.status().IsTimeout()) << response.status().ToString();
  silent.Close();
  sink.join();
}

TEST(TcpRemoteTest, KillingNodeMidCallFailsOverToFallbackStress) {
  BootedNode primary("alpha");
  BootedNode fallback("bravo");
  MetricsRegistry client_metrics;
  TcpChannel to_primary("127.0.0.1", primary.port(),
                        /*recv_timeout=*/500 * kMicrosPerMilli);
  TcpChannel to_fallback("127.0.0.1", fallback.port(),
                         /*recv_timeout=*/2 * kMicrosPerSecond);
  ResilientChannel channel(&to_primary, &to_fallback, RealClock::Instance(),
                           FailoverOptions(), &client_metrics);
  RemoteDm remote(&channel, &client_metrics);
  remote.set_trace_id(777);

  // Warm traffic against the primary.
  for (int i = 0; i < 20; ++i) {
    auto rs = remote.Execute("SELECT name FROM users WHERE user_id = ?",
                             {db::Value::Int(1)});
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs.value().rows[0][0].AsText(), "alpha");
  }
  EXPECT_EQ(channel.breaker_state(), ResilientChannel::BreakerState::kClosed);

  // Kill the primary from another thread while calls are in flight; every
  // call must still complete — served by the fallback after the breaker
  // opens — with zero client-visible failures.
  std::atomic<bool> killed{false};
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    primary.StopServing();
    killed.store(true, std::memory_order_release);
  });
  // At least 200 calls, and at least 50 of them started after the kill
  // landed: under a loaded scheduler the killer can wake after 200 fast
  // calls have already finished on the primary.
  int fallback_answers = 0;
  int calls = 0;
  for (int after_kill = 0; calls < 200 || after_kill < 50; ++calls) {
    if (killed.load(std::memory_order_acquire)) ++after_kill;
    auto rs = remote.Execute("SELECT name FROM users WHERE user_id = ?",
                             {db::Value::Int(1)});
    ASSERT_TRUE(rs.ok()) << "call " << calls << ": "
                         << rs.status().ToString();
    ASSERT_EQ(rs.value().num_rows(), 1u);
    if (rs.value().rows[0][0].AsText() == "bravo") ++fallback_answers;
  }
  killer.join();
  ASSERT_TRUE(killed.load(std::memory_order_acquire));

  // The client redirected: the breaker opened and later calls were
  // answered by the fallback node.
  ResilientChannel::Stats stats = channel.stats();
  EXPECT_GT(fallback_answers, 0);
  EXPECT_GT(stats.retries, 0);
  EXPECT_GT(stats.redirects, 0);
  EXPECT_EQ(stats.failures, 0);
  EXPECT_GE(stats.breaker_opens, 1);
  EXPECT_EQ(channel.breaker_state(), ResilientChannel::BreakerState::kOpen);
  EXPECT_EQ(client_metrics.GetCounter("remote.failures")->Value(), 0);
  EXPECT_GT(client_metrics.GetCounter("remote.redirects")->Value(), 0);

  // Both tiers recorded spans for trace 777, including the fallback node
  // (the id propagated through redirected frames too).
  int fallback_spans = 0;
  for (const TraceEvent& event : fallback.metrics()->traces().SnapshotTrace()) {
    if (event.trace_id == 777 && event.component == "dm-remote") {
      ++fallback_spans;
    }
  }
  EXPECT_EQ(fallback_spans, fallback.rmi()->calls_handled());
  EXPECT_GT(fallback_spans, 0);
  int client_spans = 0;
  for (const TraceEvent& event : client_metrics.traces().SnapshotTrace()) {
    if (event.trace_id == 777 && event.component == "remote-client") {
      ++client_spans;
    }
  }
  EXPECT_EQ(client_spans, 20 + calls);
}

int OpenFdCount() {
  int count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;  // not procfs: caller skips the check
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

// Restart hammer: 1k stop/start cycles on one server must neither leak
// file descriptors (one listener fd per cycle would hit EMFILE long
// before 1k) nor wedge the accept loop. Every rebooted generation gets a
// fresh ephemeral port and still answers queries.
TEST(TcpRemoteTest, StartStopHammerLeaksNoFdsStress) {
  BootedNode node("hammer");
  node.StopServing();
  int baseline = OpenFdCount();
  for (int cycle = 0; cycle < 1000; ++cycle) {
    ASSERT_TRUE(node.StartServing().ok()) << "cycle " << cycle;
    ASSERT_GT(node.port(), 0);
    if (cycle % 100 == 0) {
      TcpChannel channel("127.0.0.1", node.port());
      RemoteDm remote(&channel);
      auto rs = remote.Execute("SELECT COUNT(*) FROM users", {});
      ASSERT_TRUE(rs.ok()) << "cycle " << cycle << ": "
                           << rs.status().ToString();
      EXPECT_EQ(rs.value().rows[0][0].AsInt(), 1);
    }
    node.StopServing();
  }
  if (baseline >= 0) {
    // Allowance for unrelated fds the runtime may open lazily.
    EXPECT_LE(OpenFdCount(), baseline + 4) << "fd leak across restarts";
  }
  ASSERT_TRUE(node.StartServing().ok());
  TcpChannel channel("127.0.0.1", node.port());
  RemoteDm remote(&channel);
  EXPECT_TRUE(remote.Execute("SELECT COUNT(*) FROM users", {}).ok());
}

// Stop() racing in-flight connects/accepts: clients hammer the server
// while it bounces. Calls may fail with transport errors (the server is
// down half the time) but nothing may crash, hang or corrupt — and the
// server must still serve cleanly afterwards. TSan-checked in verify.sh.
TEST(TcpRemoteTest, StopRacesInFlightAcceptStress) {
  BootedNode node("bouncer");
  std::atomic<bool> done{false};
  std::atomic<int64_t> ok_calls{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        TcpChannel channel("127.0.0.1", node.port(),
                           /*recv_timeout=*/200 * kMicrosPerMilli);
        RemoteDm remote(&channel);
        auto rs = remote.Execute("SELECT COUNT(*) FROM users", {});
        if (rs.ok()) ok_calls.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int cycle = 0; cycle < 60; ++cycle) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    node.StopServing();
    ASSERT_TRUE(node.StartServing().ok()) << "cycle " << cycle;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();

  TcpChannel channel("127.0.0.1", node.port());
  RemoteDm remote(&channel);
  auto rs = remote.Execute("SELECT COUNT(*) FROM users", {});
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_GT(ok_calls.load(), 0) << "no call ever landed; race not exercised";
}

TEST(TcpRemoteTest, ManyConcurrentClientsOneServerStress) {
  BootedNode node("gamma");
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 50;
  std::atomic<int64_t> failures{0};
  std::atomic<int64_t> total_retries{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TcpChannel channel("127.0.0.1", node.port());
      MetricsRegistry metrics;
      ResilientChannel resilient(&channel, nullptr, RealClock::Instance(),
                                 FailoverOptions(), &metrics);
      RemoteDm remote(&resilient, &metrics);
      remote.set_trace_id(t + 1);
      for (int i = 0; i < kCallsPerThread; ++i) {
        auto rs = remote.Execute("SELECT COUNT(*) FROM users", {});
        if (!rs.ok() || rs.value().rows[0][0].AsInt() != 1) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      total_retries.fetch_add(resilient.stats().retries,
                              std::memory_order_relaxed);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Atomic ledger: every delivered attempt was counted exactly once
  // across 8 concurrent connections.
  EXPECT_EQ(node.rmi()->calls_handled(),
            kThreads * kCallsPerThread + total_retries.load());
  EXPECT_EQ(node.metrics()->GetCounter("remote.server.calls")->Value(),
            node.rmi()->calls_handled());
  EXPECT_GE(node.metrics()->GetCounter("remote.server.connections")->Value(),
            kThreads);
}

}  // namespace
}  // namespace hedc::dm
