// ResilientChannel + ChaosChannel: deterministic retry/backoff/deadline
// and circuit-breaker behavior against a fake clock, plus seeded chaos
// fault injection. Tests whose names contain "Stress" run under the
// `stress` ctest label (and under TSan in scripts/verify.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/backoff.h"
#include "dm/chaos_channel.h"
#include "dm/resilient_channel.h"
#include "node/node.h"

namespace hedc::dm {
namespace {

// Scripted channel: fails the first `failures_remaining` calls with the
// given status, then succeeds returning `response`; can charge a virtual
// latency per call.
class FakeChannel : public ByteChannel {
 public:
  FakeChannel(Status failure, int failures_remaining,
              Clock* clock = nullptr, Micros latency = 0)
      : failure_(std::move(failure)),
        failures_remaining_(failures_remaining),
        clock_(clock),
        latency_(latency) {}

  Result<std::vector<uint8_t>> Call(const std::vector<uint8_t>&) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (clock_ != nullptr && latency_ > 0) clock_->SleepFor(latency_);
    int remaining = failures_remaining_.load(std::memory_order_relaxed);
    while (remaining > 0) {
      if (failures_remaining_.compare_exchange_weak(
              remaining, remaining - 1, std::memory_order_relaxed)) {
        return failure_;
      }
    }
    return std::vector<uint8_t>{1, 2, 3};
  }

  int64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  void set_failures_remaining(int n) {
    failures_remaining_.store(n, std::memory_order_relaxed);
  }

 private:
  Status failure_;
  std::atomic<int> failures_remaining_;
  std::atomic<int64_t> calls_{0};
  Clock* clock_;
  Micros latency_;
};

ResilientChannel::Options FastOptions() {
  ResilientChannel::Options options;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff = 10 * kMicrosPerMilli;
  options.retry.multiplier = 2.0;
  options.retry.max_backoff = 40 * kMicrosPerMilli;
  options.retry.jitter = 0.0;
  options.failure_threshold = 3;
  options.cooldown = 500 * kMicrosPerMilli;
  return options;
}

TEST(BackoffDelayTest, ExponentialCappedAndJittered) {
  RetryPolicy policy;
  policy.initial_backoff = 10;
  policy.multiplier = 3.0;
  policy.max_backoff = 50;
  EXPECT_EQ(BackoffDelay(policy, 1, nullptr), 10);
  EXPECT_EQ(BackoffDelay(policy, 2, nullptr), 30);
  EXPECT_EQ(BackoffDelay(policy, 3, nullptr), 50);  // capped (90 -> 50)
  EXPECT_EQ(BackoffDelay(policy, 4, nullptr), 50);
  policy.jitter = 0.5;
  Rng rng_a(7), rng_b(7);
  for (int retry = 1; retry <= 4; ++retry) {
    Micros a = BackoffDelay(policy, retry, &rng_a);
    EXPECT_EQ(a, BackoffDelay(policy, retry, &rng_b));  // seed-determined
    Micros base = BackoffDelay({.initial_backoff = 10,
                                .multiplier = 3.0,
                                .max_backoff = 50},
                               retry, nullptr);
    EXPECT_GE(a, base / 2);
    EXPECT_LE(a, base + base / 2);
  }
}

TEST(ResilientChannelTest, RetriesTransientFailureThenSucceeds) {
  VirtualClock clock;
  FakeChannel flaky(Status::Unavailable("reset"), /*failures_remaining=*/2);
  MetricsRegistry metrics;
  ResilientChannel channel(&flaky, nullptr, &clock, FastOptions(), &metrics);

  Micros t0 = clock.Now();
  auto response = channel.Call({9});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  // Two failed attempts -> backoffs of 10ms and 20ms before the success.
  EXPECT_EQ(clock.Now() - t0, 30 * kMicrosPerMilli);
  ResilientChannel::Stats stats = channel.stats();
  EXPECT_EQ(stats.calls, 1);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_EQ(stats.retries, 2);
  EXPECT_EQ(stats.failures, 0);
  EXPECT_EQ(metrics.GetCounter("remote.retries")->Value(), 2);
}

TEST(ResilientChannelTest, BackoffScheduleIsExponentialAndCapped) {
  VirtualClock clock;
  FakeChannel dead(Status::Unavailable("down"), /*failures_remaining=*/1000);
  ResilientChannel channel(&dead, nullptr, &clock, FastOptions());

  Micros t0 = clock.Now();
  auto response = channel.Call({9});
  EXPECT_TRUE(response.status().IsUnavailable());
  // 4 attempts -> 3 backoffs: 10 + 20 + 40 (capped) ms.
  EXPECT_EQ(clock.Now() - t0, 70 * kMicrosPerMilli);
  EXPECT_EQ(channel.stats().failures, 1);
  EXPECT_EQ(channel.stats().attempts, 4);
}

TEST(ResilientChannelTest, JitteredScheduleIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    VirtualClock clock;
    FakeChannel dead(Status::Unavailable("down"), 1000);
    ResilientChannel::Options options = FastOptions();
    options.retry.jitter = 0.5;
    options.rng_seed = seed;
    ResilientChannel channel(&dead, nullptr, &clock, options);
    (void)channel.Call({1});
    return clock.Now();
  };
  EXPECT_EQ(run(3), run(3));
  EXPECT_NE(run(3), run(4));
}

TEST(ResilientChannelTest, LateResponseCountsAsTimeout) {
  VirtualClock clock;
  // Succeeds instantly but burns 50ms of virtual time per call.
  FakeChannel slow(Status::Ok(), /*failures_remaining=*/0, &clock,
                   /*latency=*/50 * kMicrosPerMilli);
  ResilientChannel::Options options = FastOptions();
  options.call_deadline = 10 * kMicrosPerMilli;
  options.failure_threshold = 1000;  // keep the breaker out of this test
  ResilientChannel channel(&slow, nullptr, &clock, options);

  auto response = channel.Call({9});
  EXPECT_TRUE(response.status().IsTimeout()) << response.status().ToString();
  EXPECT_EQ(channel.stats().attempts, 4);  // timeouts are retried
}

TEST(ResilientChannelTest, ApplicationErrorsAreNotRetried) {
  VirtualClock clock;
  FakeChannel notfound(Status::NotFound("no such table"), 1000);
  ResilientChannel channel(&notfound, nullptr, &clock, FastOptions());

  auto response = channel.Call({9});
  EXPECT_TRUE(response.status().IsNotFound());
  EXPECT_EQ(channel.stats().attempts, 1);
  EXPECT_EQ(channel.stats().retries, 0);
  EXPECT_EQ(clock.Now(), 0);  // no backoff slept
}

TEST(ResilientChannelTest, BreakerOpensAfterConsecutiveFailuresAndRedirects) {
  VirtualClock clock;
  FakeChannel dead(Status::Unavailable("down"), 1000000);
  FakeChannel healthy(Status::Ok(), 0);
  ResilientChannel::Options options = FastOptions();
  options.retry.max_attempts = 1;  // isolate breaker accounting from retry
  ResilientChannel channel(&dead, &healthy, &clock, options);

  // threshold = 3 consecutive primary failures.
  EXPECT_FALSE(channel.Call({1}).ok());
  EXPECT_FALSE(channel.Call({1}).ok());
  EXPECT_EQ(channel.breaker_state(), ResilientChannel::BreakerState::kClosed);
  EXPECT_FALSE(channel.Call({1}).ok());
  EXPECT_EQ(channel.breaker_state(), ResilientChannel::BreakerState::kOpen);
  EXPECT_EQ(channel.stats().breaker_opens, 1);

  // While open every call redirects to the fallback and succeeds.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(channel.Call({1}).ok());
  }
  EXPECT_EQ(channel.stats().redirects, 5);
  EXPECT_EQ(healthy.calls(), 5);
  EXPECT_EQ(channel.breaker_state(), ResilientChannel::BreakerState::kOpen);
}

TEST(ResilientChannelTest, HalfOpenProbeClosesBreakerOnRecovery) {
  VirtualClock clock;
  FakeChannel primary(Status::Unavailable("down"), 3);
  FakeChannel fallback(Status::Ok(), 0);
  ResilientChannel::Options options = FastOptions();
  options.retry.max_attempts = 1;
  ResilientChannel channel(&primary, &fallback, &clock, options);

  for (int i = 0; i < 3; ++i) (void)channel.Call({1});
  ASSERT_EQ(channel.breaker_state(), ResilientChannel::BreakerState::kOpen);

  // Primary has recovered (failures exhausted); after the cooldown the
  // next call probes it and closes the breaker.
  clock.Advance(FastOptions().cooldown + 1);
  int64_t primary_calls_before = primary.calls();
  EXPECT_TRUE(channel.Call({1}).ok());
  EXPECT_EQ(primary.calls(), primary_calls_before + 1);
  EXPECT_EQ(channel.breaker_state(), ResilientChannel::BreakerState::kClosed);
  EXPECT_EQ(channel.stats().breaker_closes, 1);
}

TEST(ResilientChannelTest, HalfOpenProbeFailureReopensBreaker) {
  VirtualClock clock;
  FakeChannel primary(Status::Unavailable("down"), 1000000);
  FakeChannel fallback(Status::Ok(), 0);
  ResilientChannel::Options options = FastOptions();
  options.retry.max_attempts = 1;
  ResilientChannel channel(&primary, &fallback, &clock, options);

  for (int i = 0; i < 3; ++i) (void)channel.Call({1});
  ASSERT_EQ(channel.breaker_state(), ResilientChannel::BreakerState::kOpen);

  clock.Advance(FastOptions().cooldown + 1);
  // The probe hits the still-dead primary and fails the call (no retry
  // budget), reopening the breaker for a fresh cooldown.
  EXPECT_FALSE(channel.Call({1}).ok());
  EXPECT_EQ(channel.breaker_state(), ResilientChannel::BreakerState::kOpen);
  EXPECT_EQ(channel.stats().breaker_opens, 2);

  // Still open before the new cooldown elapses: redirects, no probe.
  int64_t primary_calls = primary.calls();
  clock.Advance(FastOptions().cooldown / 2);
  EXPECT_TRUE(channel.Call({1}).ok());
  EXPECT_EQ(primary.calls(), primary_calls);
}

TEST(ResilientChannelTest, OrderedFallbacksRotateOnFailureThenResetOnRecovery) {
  VirtualClock clock;
  FakeChannel primary(Status::Unavailable("down"), 1000000);
  FakeChannel fallback_b(Status::Unavailable("also down"), 1000000);
  FakeChannel fallback_c(Status::Ok(), 0);
  ResilientChannel::Options options = FastOptions();
  options.retry.max_attempts = 3;
  std::vector<ResilientChannel::BreakerState> transitions;
  options.on_state_change = [&transitions](ResilientChannel::BreakerState s) {
    transitions.push_back(s);
  };
  ResilientChannel channel(&primary,
                           std::vector<ByteChannel*>{&fallback_b, &fallback_c},
                           &clock, options);

  // Trip the breaker: three primary attempts (= threshold) in one call.
  EXPECT_FALSE(channel.Call({1}).ok());
  ASSERT_EQ(channel.breaker_state(), ResilientChannel::BreakerState::kOpen);
  ASSERT_EQ(transitions,
            std::vector<ResilientChannel::BreakerState>{
                ResilientChannel::BreakerState::kOpen});
  EXPECT_EQ(channel.active_fallback(), 0u);  // preferred fallback first

  // Open-breaker traffic probes B (first in preference order), and B's
  // transport failure rotates to C within the same call — zero visible
  // failures from here on.
  EXPECT_TRUE(channel.Call({1}).ok());
  EXPECT_EQ(fallback_b.calls(), 1);
  EXPECT_EQ(fallback_c.calls(), 1);
  EXPECT_EQ(channel.active_fallback(), 1u);
  EXPECT_GE(channel.stats().fallback_rotations, 1);

  // Subsequent calls stay on C without touching B again.
  int64_t b_calls = fallback_b.calls();
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(channel.Call({1}).ok());
  EXPECT_EQ(fallback_b.calls(), b_calls);
  EXPECT_EQ(fallback_c.calls(), 5);

  // Primary recovers: the half-open probe closes the breaker, traffic
  // returns to the preferred node, and the rotation resets to the front
  // so a future outage tries B before C again.
  primary.set_failures_remaining(0);
  clock.Advance(FastOptions().cooldown + 1);
  int64_t primary_calls = primary.calls();
  EXPECT_TRUE(channel.Call({1}).ok());
  EXPECT_GT(primary.calls(), primary_calls);
  EXPECT_EQ(channel.breaker_state(), ResilientChannel::BreakerState::kClosed);
  EXPECT_EQ(channel.active_fallback(), 0u);
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[1], ResilientChannel::BreakerState::kClosed);
  // Closed breaker: calls go to the primary, fallbacks untouched.
  int64_t c_calls = fallback_c.calls();
  EXPECT_TRUE(channel.Call({1}).ok());
  EXPECT_EQ(fallback_c.calls(), c_calls);
}

TEST(ResilientChannelTest, AllFallbacksDeadCyclesThroughEntireList) {
  VirtualClock clock;
  FakeChannel primary(Status::Unavailable("down"), 1000000);
  FakeChannel fallback_b(Status::Unavailable("down"), 1000000);
  FakeChannel fallback_c(Status::Unavailable("down"), 1000000);
  ResilientChannel::Options options = FastOptions();
  options.retry.max_attempts = 1;
  ResilientChannel channel(&primary,
                           std::vector<ByteChannel*>{&fallback_b, &fallback_c},
                           &clock, options);
  for (int i = 0; i < 3; ++i) (void)channel.Call({1});
  ASSERT_EQ(channel.breaker_state(), ResilientChannel::BreakerState::kOpen);

  // Every open-breaker call fails on the active fallback and rotates; the
  // rotation wraps around the list rather than sticking or walking off
  // the end.
  for (int i = 0; i < 4; ++i) {
    size_t before = channel.active_fallback();
    EXPECT_FALSE(channel.Call({1}).ok());
    EXPECT_EQ(channel.active_fallback(), (before + 1) % 2);
  }
  EXPECT_EQ(channel.stats().fallback_rotations, 4);
}

TEST(ResilientChannelTest, BreakerOpenWithoutFallbackFailsFast) {
  VirtualClock clock;
  FakeChannel dead(Status::Unavailable("down"), 1000000);
  ResilientChannel::Options options = FastOptions();
  options.retry.max_attempts = 1;
  ResilientChannel channel(&dead, nullptr, &clock, options);

  for (int i = 0; i < 3; ++i) (void)channel.Call({1});
  ASSERT_EQ(channel.breaker_state(), ResilientChannel::BreakerState::kOpen);
  int64_t dead_calls = dead.calls();
  auto response = channel.Call({1});
  EXPECT_TRUE(response.status().IsUnavailable());
  EXPECT_EQ(dead.calls(), dead_calls);  // primary not even attempted
}

TEST(ChaosChannelTest, DropsAreDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    VirtualClock clock;
    FakeChannel healthy(Status::Ok(), 0);
    ChaosOptions chaos;
    chaos.drop_p = 0.3;
    chaos.seed = seed;
    ChaosChannel channel(&healthy, &clock, chaos);
    for (int i = 0; i < 200; ++i) (void)channel.Call({1});
    return channel.counts().drops;
  };
  int64_t drops = run(11);
  EXPECT_EQ(drops, run(11));
  EXPECT_GT(drops, 20);
  EXPECT_LT(drops, 120);
}

TEST(ChaosChannelTest, DroppedCallsAreRetriedToSuccess) {
  VirtualClock clock;
  FakeChannel healthy(Status::Ok(), 0);
  ChaosOptions chaos;
  chaos.drop_p = 0.4;
  chaos.seed = 5;
  ChaosChannel chaotic(&healthy, &clock, chaos);
  ResilientChannel::Options options = FastOptions();
  options.retry.max_attempts = 10;
  options.failure_threshold = 1000;  // keep the breaker out of this test
  ResilientChannel channel(&chaotic, nullptr, &clock, options);

  for (int i = 0; i < 100; ++i) {
    auto response = channel.Call({1});
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }
  ResilientChannel::Stats stats = channel.stats();
  EXPECT_EQ(stats.calls, 100);
  EXPECT_EQ(stats.retries, chaotic.counts().drops);
  EXPECT_EQ(stats.attempts, 100 + stats.retries);
}

TEST(ChaosChannelTest, InjectedDelaysTripTheDeadline) {
  VirtualClock clock;
  FakeChannel healthy(Status::Ok(), 0);
  ChaosOptions chaos;
  chaos.delay_p = 1.0;
  chaos.delay_min = 30 * kMicrosPerMilli;
  chaos.delay_max = 30 * kMicrosPerMilli;
  ChaosChannel chaotic(&healthy, &clock, chaos);
  ResilientChannel::Options options = FastOptions();
  options.call_deadline = 5 * kMicrosPerMilli;
  options.failure_threshold = 1000;  // keep the breaker out of this test
  ResilientChannel channel(&chaotic, nullptr, &clock, options);

  auto response = channel.Call({1});
  EXPECT_TRUE(response.status().IsTimeout()) << response.status().ToString();
  EXPECT_EQ(channel.stats().attempts, 4);
  EXPECT_EQ(chaotic.counts().delays, 4);
}

// --- chaos against a real DM node (full marshalling path) ---------------

class ChaosDmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(node_.Boot().ok());
    server_ = std::make_unique<RmiServer>(node_.dm(), &metrics_);
    inner_ = std::make_unique<InProcessChannel>(server_.get());
    ASSERT_TRUE(node_.dm()->users().CreateUser("a", "h", UserProfile{}).ok());
  }

  VirtualClock clock_;
  MetricsRegistry metrics_;
  Node node_{"chaos-node", NodeOptions{}, &clock_};
  std::unique_ptr<RmiServer> server_;
  std::unique_ptr<InProcessChannel> inner_;
};

TEST_F(ChaosDmTest, TruncatedResponsesYieldCorruptionAndAreRetried) {
  ChaosOptions chaos;
  chaos.truncate_p = 1.0;
  chaos.seed = 3;
  ChaosChannel chaotic(inner_.get(), &clock_, chaos);
  ResilientChannel::Options options = FastOptions();
  options.failure_threshold = 1000;  // keep the breaker out of this test
  ResilientChannel channel(&chaotic, nullptr, &clock_, options, &metrics_);
  RemoteDm remote(&channel, &metrics_);

  auto rs = remote.Execute("SELECT name FROM users WHERE user_id = ?",
                           {db::Value::Int(1)});
  EXPECT_FALSE(rs.ok());
  EXPECT_EQ(chaotic.counts().truncations, 4);  // every attempt truncated
  EXPECT_EQ(channel.stats().attempts, 4);
  EXPECT_EQ(channel.stats().failures, 1);
}

TEST_F(ChaosDmTest, DuplicatedRequestsAreHandledTwiceByTheServer) {
  ChaosOptions chaos;
  chaos.duplicate_p = 1.0;
  chaos.seed = 3;
  ChaosChannel chaotic(inner_.get(), &clock_, chaos);
  RemoteDm remote(&chaotic, &metrics_);

  auto rs = remote.Execute("SELECT name FROM users WHERE user_id = ?",
                           {db::Value::Int(1)});
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(chaotic.counts().duplicates, 1);
  EXPECT_EQ(server_->calls_handled(), 2);
}

TEST_F(ChaosDmTest, GarbledResponsesNeverCrashTheClient) {
  ChaosOptions chaos;
  chaos.garble_p = 0.7;
  chaos.truncate_p = 0.3;
  chaos.seed = 17;
  ChaosChannel chaotic(inner_.get(), &clock_, chaos);
  ResilientChannel::Options options = FastOptions();
  options.failure_threshold = 1000000;
  ResilientChannel channel(&chaotic, nullptr, &clock_, options, &metrics_);
  RemoteDm remote(&channel, &metrics_);

  int successes = 0;
  for (int i = 0; i < 100; ++i) {
    auto rs = remote.Execute("SELECT name FROM users WHERE user_id = ?",
                             {db::Value::Int(1)});
    if (rs.ok()) ++successes;
  }
  // Some calls get a response that decodes within the retry budget (a
  // garbled frame may still decode — in-process channels have no frame
  // checksum; the TCP transport adds CRC32); none crash.
  EXPECT_GT(successes, 0);
  EXPECT_GT(chaotic.counts().garbles, 0);
}

// --- stress suite (ctest label `stress`; TSan-clean) --------------------

TEST_F(ChaosDmTest, ConcurrentChaosRetryStress) {
  ChaosOptions chaos;
  chaos.drop_p = 0.1;
  chaos.delay_p = 0.2;
  chaos.truncate_p = 0.05;
  chaos.garble_p = 0.05;
  chaos.duplicate_p = 0.05;
  chaos.delay_min = 1;
  chaos.delay_max = 100;
  chaos.seed = 99;
  ChaosChannel chaotic(inner_.get(), &clock_, chaos);
  ResilientChannel::Options options = FastOptions();
  options.retry.max_attempts = 6;
  options.retry.initial_backoff = 10;
  options.retry.max_backoff = 100;
  options.failure_threshold = 1000000;
  ResilientChannel channel(&chaotic, nullptr, &clock_, options, &metrics_);

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 150;
  std::atomic<int64_t> successes{0};
  std::atomic<int64_t> transport_failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      RemoteDm remote(&channel, &metrics_);
      remote.set_trace_id(1000 + t);
      for (int i = 0; i < kCallsPerThread; ++i) {
        auto rs = remote.Execute("SELECT name FROM users WHERE user_id = ?",
                                 {db::Value::Int(1)});
        if (rs.ok()) {
          successes.fetch_add(1, std::memory_order_relaxed);
        } else {
          transport_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  ResilientChannel::Stats stats = channel.stats();
  EXPECT_EQ(stats.calls, kThreads * kCallsPerThread);
  EXPECT_EQ(successes.load() + transport_failures.load(),
            kThreads * kCallsPerThread);
  EXPECT_EQ(stats.attempts, stats.calls + stats.retries);
  EXPECT_GT(stats.retries, 0);
  EXPECT_GT(successes.load(), kThreads * kCallsPerThread / 2);
  // The atomic calls_handled_ ledger is consistent under concurrency: the
  // server saw every attempt that was not dropped before delivery, plus
  // one extra handle per duplicated request.
  ChaosChannel::Counts counts = chaotic.counts();
  EXPECT_EQ(server_->calls_handled(),
            stats.attempts - counts.drops + counts.duplicates);
  // A clean follow-up call still works: the node survived the chaos.
  InProcessChannel direct(server_.get());
  RemoteDm remote(&direct, &metrics_);
  EXPECT_TRUE(remote.Execute("SELECT name FROM users WHERE user_id = ?",
                             {db::Value::Int(1)})
                  .ok());
}

TEST_F(ChaosDmTest, BreakerRedirectsUnderConcurrencyStress) {
  // Primary drops half its calls; fallback is a second healthy channel to
  // the same node. The breaker will open/probe/close repeatedly; the
  // invariant is bookkeeping consistency, not a specific schedule.
  ChaosOptions chaos;
  chaos.drop_p = 0.5;
  chaos.seed = 123;
  ChaosChannel flaky_primary(inner_.get(), &clock_, chaos);
  InProcessChannel healthy_fallback(server_.get());
  ResilientChannel::Options options = FastOptions();
  options.retry.max_attempts = 3;
  options.retry.initial_backoff = 10;
  options.failure_threshold = 2;
  options.cooldown = 200;
  ResilientChannel channel(&flaky_primary, &healthy_fallback, &clock_,
                           options, &metrics_);

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 200;
  std::atomic<int64_t> successes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      RemoteDm remote(&channel, &metrics_);
      for (int i = 0; i < kCallsPerThread; ++i) {
        if (remote.Execute("SELECT COUNT(*) FROM users", {}).ok()) {
          successes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  ResilientChannel::Stats stats = channel.stats();
  EXPECT_EQ(stats.calls, kThreads * kCallsPerThread);
  EXPECT_EQ(stats.attempts, stats.calls + stats.retries);
  EXPECT_GT(stats.redirects, 0);
  EXPECT_GT(stats.breaker_opens, 0);
  // With a healthy fallback almost everything lands; conservatively at
  // least 90% (a drop can still eat the probe attempts of one call).
  EXPECT_GE(successes.load(), kThreads * kCallsPerThread * 9 / 10);
}

}  // namespace
}  // namespace hedc::dm
