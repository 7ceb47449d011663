// Reactor stress lane (ctest label net-stress; runs under TSan in
// scripts/verify.sh): connection churn raced against Stop/restart and
// against CloseListener on 4 threads, the deadline sweep raced against
// connections going idle and coming back, a 1k-connection storm, and the
// chaos/resilience stack layered over the reactor transport. These are
// the schedules where connection handoffs between reactor threads and the
// control thread break if the ownership rules in net/reactor.h are wrong.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "dm/chaos_channel.h"
#include "dm/resilient_channel.h"
#include "dm/tcp_remote.h"

namespace hedc {
namespace {

class EchoRmi : public dm::RmiHandler {
 public:
  std::vector<uint8_t> Handle(const std::vector<uint8_t>& request) override {
    return request;
  }
};

dm::TcpRmiServer::Options ReactorOptions() {
  dm::TcpRmiServer::Options options;
  options.reactor.loops = 2;
  return options;
}

// Clients churn connections (connect, one call, disconnect) while the
// main thread bounces the server. Calls fail while it is down — that is
// the contract — but nothing may crash, hang, or leave the server unable
// to serve afterwards.
TEST(NetStressTest, ConnectionChurnRacedAgainstStopRestart) {
  EchoRmi rmi;
  MetricsRegistry metrics;
  dm::TcpRmiServer server(&rmi, &metrics, ReactorOptions());
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> done{false};
  std::atomic<int64_t> successes{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      uint8_t tag = static_cast<uint8_t>(t);
      while (!done.load(std::memory_order_acquire)) {
        int port = server.port();
        if (port <= 0) continue;
        dm::TcpChannel channel("127.0.0.1", port,
                               /*recv_timeout=*/200 * kMicrosPerMilli);
        auto response = channel.Call({tag, 1, 2, 3});
        if (response.ok()) {
          EXPECT_EQ(response.value(),
                    (std::vector<uint8_t>{tag, 1, 2, 3}));
          successes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int cycle = 0; cycle < 10; ++cycle) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    server.Stop();
    ASSERT_TRUE(server.Start().ok()) << "cycle " << cycle;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  done.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();

  EXPECT_GT(successes.load(), 0);
  dm::TcpChannel channel("127.0.0.1", server.port());
  auto response = channel.Call({9});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  server.Stop();
}

// Echoes after a short pause, so Stop often lands mid-call, and counts
// every handler entry or exit seen after `closed` was raised.
class GuardedRmi : public dm::RmiHandler {
 public:
  std::vector<uint8_t> Handle(const std::vector<uint8_t>& request) override {
    if (closed.load(std::memory_order_acquire)) late.fetch_add(1);
    running.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    running.fetch_sub(1);
    if (closed.load(std::memory_order_acquire)) late.fetch_add(1);
    return request;
  }

  std::atomic<bool> closed{false};
  std::atomic<int> running{0};
  std::atomic<int> late{0};
};

// Connection churn and in-flight handlers on 4 loops of one shared
// reactor, raced against CloseListener (server Stop) and, last, against
// the reactor's own Stop. Once either returns, no handler of the closed
// listener may still run or start: each cycle's handler object is
// destroyed right after, so a late call would also be a use-after-free.
TEST(NetStressTest, NoHandlerRunsAfterCloseListenerOnFourLoops) {
  MetricsRegistry metrics;
  net::Reactor::Options reactor_options;
  reactor_options.loops = 4;
  reactor_options.metrics = &metrics;
  net::Reactor reactor(reactor_options);
  ASSERT_TRUE(reactor.Start().ok());

  constexpr int kCycles = 12;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const bool stop_reactor = cycle == kCycles - 1;
    GuardedRmi rmi;
    dm::TcpRmiServer::Options options;
    options.shared_reactor = &reactor;
    dm::TcpRmiServer server(&rmi, &metrics, options);
    ASSERT_TRUE(server.Start().ok());
    const int port = server.port();

    std::atomic<bool> done{false};
    std::vector<std::thread> clients;
    for (int t = 0; t < 6; ++t) {
      clients.emplace_back([&, t] {
        uint8_t tag = static_cast<uint8_t>(t);
        while (!done.load(std::memory_order_acquire)) {
          // Half the clients reconnect per call, half keep one connection
          // for a few calls.
          dm::TcpChannel channel("127.0.0.1", port,
                                 /*recv_timeout=*/200 * kMicrosPerMilli);
          for (int i = 0; i < (t % 2 == 0 ? 1 : 4); ++i) {
            if (!channel.Call({tag, static_cast<uint8_t>(i)}).ok()) break;
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    if (stop_reactor) {
      reactor.Stop();
    } else {
      server.Stop();
    }
    rmi.closed.store(true, std::memory_order_release);
    EXPECT_EQ(rmi.running.load(), 0) << "cycle " << cycle;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    done.store(true, std::memory_order_release);
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(rmi.late.load(), 0) << "cycle " << cycle;
  }
  EXPECT_FALSE(reactor.running());
  EXPECT_EQ(metrics.GetGauge("net.conns_open")->Value(), 0);
}

// Echoes; a request whose first byte is kSlow first sleeps past the idle
// deadline, so the sweep meets a connection busy that long.
class SlowTaggedRmi : public dm::RmiHandler {
 public:
  static constexpr uint8_t kSlow = 0xFF;
  std::vector<uint8_t> Handle(const std::vector<uint8_t>& request) override {
    if (!request.empty() && request[0] == kSlow) {
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
    return request;
  }
};

// Clients on a 4-thread reactor with a 30 ms idle timeout go quiet for
// 20-40 ms between calls, so the deadline sweep closes idle connections
// just as their next request arrives, and meets connections whose handler
// outlives the deadline. A call that finds its connection reaped
// (kUnavailable) reconnects and retries. Every call must be answered,
// with its own bytes, and the sweep must skip busy connections.
TEST(NetStressTest, DeadlineSweepRacesIdleConnectionsComingBack) {
  MetricsRegistry metrics;
  net::Reactor::Options reactor_options;
  reactor_options.loops = 4;
  reactor_options.idle_timeout = 30 * kMicrosPerMilli;
  reactor_options.metrics = &metrics;
  net::Reactor reactor(reactor_options);
  ASSERT_TRUE(reactor.Start().ok());
  SlowTaggedRmi rmi;
  dm::TcpRmiServer::Options options;
  options.shared_reactor = &reactor;
  dm::TcpRmiServer server(&rmi, &metrics, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 6;
  constexpr int kCalls = 15;
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      std::mt19937 rng(static_cast<uint32_t>(t));
      std::uniform_int_distribution<int> quiet_ms(20, 40);
      dm::TcpChannel channel("127.0.0.1", server.port(),
                             /*recv_timeout=*/2 * kMicrosPerSecond);
      for (int i = 0; i < kCalls; ++i) {
        std::vector<uint8_t> request = {
            i % 4 == 0 ? SlowTaggedRmi::kSlow : static_cast<uint8_t>(t),
            static_cast<uint8_t>(i)};
        Result<std::vector<uint8_t>> response =
            Status::Unavailable("not called");
        for (int attempt = 0; attempt < 5; ++attempt) {
          response = channel.Call(request);
          if (response.status().code() != StatusCode::kUnavailable) break;
        }
        ASSERT_TRUE(response.ok())
            << "client " << t << " call " << i << ": "
            << response.status().ToString();
        EXPECT_EQ(response.value(), request);
        answered.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(quiet_ms(rng)));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(answered.load(), kClients * kCalls);
  EXPECT_GT(metrics.GetCounter("net.timeouts")->Value(), 0);
  reactor.Stop();
  EXPECT_EQ(reactor.conns_open(), 0);
}

// 1k concurrent keep-alive connections on one loop, each making several
// calls; all must be served and the gauge must return to zero when the
// clients hang up.
TEST(NetStressTest, ThousandConnectionStormServesEveryCall) {
  EchoRmi rmi;
  MetricsRegistry metrics;
  dm::TcpRmiServer server(&rmi, &metrics, ReactorOptions());
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 8;
  constexpr int kConnsPerThread = 125;  // 1000 total
  std::atomic<int64_t> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      // Each thread holds its connections open to the end, so all 1000
      // coexist on the loop.
      std::vector<std::unique_ptr<dm::TcpChannel>> channels;
      for (int i = 0; i < kConnsPerThread; ++i) {
        channels.push_back(std::make_unique<dm::TcpChannel>(
            "127.0.0.1", server.port(), /*recv_timeout=*/5 * kMicrosPerSecond));
      }
      for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < kConnsPerThread; ++i) {
          uint8_t tag = static_cast<uint8_t>(t * kConnsPerThread + i);
          auto response = channels[i]->Call({tag, static_cast<uint8_t>(round)});
          if (!response.ok() ||
              response.value() !=
                  (std::vector<uint8_t>{tag, static_cast<uint8_t>(round)})) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(metrics.GetCounter("remote.server.frames")->Value(),
            kThreads * kConnsPerThread * 3);

  // All clients hung up; the loop reaps the EOFs promptly.
  for (int i = 0; i < 200; ++i) {
    if (metrics.GetGauge("net.conns_open")->Value() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(metrics.GetGauge("net.conns_open")->Value(), 0);
  server.Stop();
}

// The full client resilience stack — ChaosChannel injecting drops,
// delays, duplicates, truncations and garbles over a real reactor-served
// socket, ResilientChannel retrying above it — must absorb every injected
// fault with zero client-visible failures.
TEST(NetStressTest, ChaosOverReactorTransportIsAbsorbedByRetries) {
  EchoRmi rmi;
  MetricsRegistry metrics;
  dm::TcpRmiServer server(&rmi, &metrics, ReactorOptions());
  ASSERT_TRUE(server.Start().ok());

  dm::TcpChannel tcp("127.0.0.1", server.port(),
                     /*recv_timeout=*/kMicrosPerSecond);
  dm::ChaosOptions chaos_options;
  chaos_options.drop_p = 0.08;
  chaos_options.delay_p = 0.10;
  chaos_options.duplicate_p = 0.05;
  chaos_options.truncate_p = 0.05;
  // garble is omitted: it flips response bytes above the frame CRC, which
  // only the RMI result codec can detect (dm_chaos_test covers that); a
  // raw echo payload would accept the flipped bytes as a "success".
  chaos_options.seed = 20030607;
  dm::ChaosChannel chaos(&tcp, RealClock::Instance(), chaos_options);
  dm::ResilientChannel::Options resilient_options;
  resilient_options.retry.max_attempts = 8;
  resilient_options.retry.initial_backoff = kMicrosPerMilli;
  resilient_options.retry.max_backoff = 10 * kMicrosPerMilli;
  resilient_options.failure_threshold = 1000;  // keep the breaker closed
  MetricsRegistry client_metrics;
  dm::ResilientChannel channel(&chaos, std::vector<dm::ByteChannel*>{},
                               RealClock::Instance(), resilient_options,
                               &client_metrics);

  for (int i = 0; i < 300; ++i) {
    std::vector<uint8_t> payload = {static_cast<uint8_t>(i),
                                    static_cast<uint8_t>(i >> 8), 0x42};
    auto response = channel.Call(payload);
    ASSERT_TRUE(response.ok()) << "call " << i << ": "
                               << response.status().ToString();
    ASSERT_EQ(response.value(), payload) << "call " << i;
  }
  dm::ChaosChannel::Counts counts = chaos.counts();
  // The schedule actually injected faults; the stack hid all of them.
  EXPECT_GT(counts.drops + counts.truncations, 0);
  EXPECT_EQ(channel.stats().failures, 0);
  server.Stop();
}

}  // namespace
}  // namespace hedc
