// Adversarial clients against the reactor transport: slowloris drips,
// hostile frame lengths, half-open connection floods — the attacks a
// thread-per-connection server dies to (thread exhaustion) and an event
// loop must shrug off with bounded resources. Plus the TcpChannel
// reconnect regression: a client whose server keeps corrupting responses
// must reconnect on every call without leaking a single fd.
#include <gtest/gtest.h>

#include <dirent.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dm/tcp_remote.h"

namespace hedc {
namespace {

class EchoRmi : public dm::RmiHandler {
 public:
  std::vector<uint8_t> Handle(const std::vector<uint8_t>& request) override {
    return request;
  }
};

// Answers every frame with 64 KB that start with the request bytes, and
// counts handler runs.
class BulkRmi : public dm::RmiHandler {
 public:
  std::vector<uint8_t> Handle(const std::vector<uint8_t>& request) override {
    runs.fetch_add(1, std::memory_order_relaxed);
    std::vector<uint8_t> reply(64u << 10, 0xAB);
    std::copy(request.begin(), request.end(), reply.begin());
    return reply;
  }

  std::atomic<int64_t> runs{0};
};

int OpenFdCount() {
  int count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;  // not procfs: caller skips the check
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

// Polls until `cond` holds or ~2s elapse.
template <typename Cond>
bool EventuallyTrue(Cond cond) {
  for (int i = 0; i < 200; ++i) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return cond();
}

TEST(NetAdversarialTest, SlowlorisDiesOnReadTimeoutWithoutHoldingWorker) {
  // One worker: if the dripper occupied it, the well-behaved client below
  // could never be served. The drip resets the idle clock on every byte,
  // so only the incomplete-request (read) deadline can kill it.
  EchoRmi rmi;
  MetricsRegistry metrics;
  dm::TcpRmiServer::Options options;
  options.reactor.loops = 1;
  options.reactor.read_timeout = 150 * kMicrosPerMilli;
  options.reactor.idle_timeout = 30 * kMicrosPerSecond;
  dm::TcpRmiServer server(&rmi, &metrics, options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop_drip{false};
  std::thread dripper([&] {
    auto connected = net::TcpConnect("127.0.0.1", server.port());
    if (!connected.ok()) return;
    net::TcpSocket socket = std::move(connected).value();
    std::vector<uint8_t> frame = net::EncodeFrame(
        std::vector<uint8_t>(1024, 0x5A));
    size_t sent = 0;
    // Never finish the frame: one byte every 30ms keeps the connection
    // active but the request forever incomplete.
    while (!stop_drip.load(std::memory_order_acquire) &&
           sent + 1 < frame.size()) {
      if (!socket.SendAll(&frame[sent], 1).ok()) return;  // reaped: done
      ++sent;
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  });

  // The lone worker keeps serving complete requests throughout the drip.
  dm::TcpChannel channel("127.0.0.1", server.port());
  for (int i = 0; i < 10; ++i) {
    auto response = channel.Call({static_cast<uint8_t>(i)});
    ASSERT_TRUE(response.ok()) << "call " << i << " starved: "
                               << response.status().ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // The dripper is reaped by the read deadline, not served and not
  // tolerated forever.
  EXPECT_TRUE(EventuallyTrue([&] {
    return metrics.GetCounter("net.timeouts")->Value() >= 1;
  })) << "slowloris connection was never reaped";
  stop_drip.store(true, std::memory_order_release);
  dripper.join();
  server.Stop();
}

TEST(NetAdversarialTest, OversizedFrameRejectedBeforeAllocation) {
  EchoRmi rmi;
  MetricsRegistry metrics;
  dm::TcpRmiServer::Options options;
  options.max_frame = 1u << 20;
  dm::TcpRmiServer server(&rmi, &metrics, options);
  ASSERT_TRUE(server.Start().ok());

  auto connected = net::TcpConnect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  net::TcpSocket socket = std::move(connected).value();
  // Claim just over the limit. The 4 header bytes are all the server ever
  // buffers: the rejection counter fires before any payload allocation.
  uint32_t hostile = (1u << 20) + 1;
  uint8_t header[4];
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<uint8_t>(hostile >> (8 * i));
  }
  ASSERT_TRUE(socket.SendAll(header, sizeof(header)).ok());

  auto response = net::RecvFrame(socket);
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(metrics.GetCounter("net.oversized_frames")->Value(), 1);
  EXPECT_EQ(metrics.GetCounter("net.protocol_errors")->Value(), 1);
  EXPECT_EQ(metrics.GetCounter("remote.server.frames")->Value(), 0);
  server.Stop();
}

TEST(NetAdversarialTest, HalfOpenFloodIsReapedAndFdsReturnToBaseline) {
  EchoRmi rmi;
  MetricsRegistry metrics;
  dm::TcpRmiServer::Options options;
  options.reactor.idle_timeout = 100 * kMicrosPerMilli;
  dm::TcpRmiServer server(&rmi, &metrics, options);
  ASSERT_TRUE(server.Start().ok());

  int baseline = OpenFdCount();
  {
    // 200 connections that never send a byte — a half-open flood.
    std::vector<net::TcpSocket> flood;
    flood.reserve(200);
    for (int i = 0; i < 200; ++i) {
      auto connected = net::TcpConnect("127.0.0.1", server.port());
      ASSERT_TRUE(connected.ok()) << "connect " << i;
      flood.push_back(std::move(connected).value());
    }
    ASSERT_TRUE(EventuallyTrue([&] {
      return metrics.GetCounter("net.accepts")->Value() >= 200;
    }));
    // The idle sweep reaps every one of them within a few periods.
    EXPECT_TRUE(EventuallyTrue([&] {
      return metrics.GetGauge("net.conns_open")->Value() == 0;
    })) << "half-open connections not reaped; still open: "
        << metrics.GetGauge("net.conns_open")->Value();
    EXPECT_GE(metrics.GetCounter("net.timeouts")->Value(), 200);
  }  // client sockets closed here

  if (baseline >= 0) {
    EXPECT_TRUE(EventuallyTrue(
        [&] { return OpenFdCount() <= baseline + 4; }))
        << "fds leaked after flood: " << OpenFdCount() << " vs baseline "
        << baseline;
  }
  // Server still healthy.
  dm::TcpChannel channel("127.0.0.1", server.port());
  EXPECT_TRUE(channel.Call({1, 2, 3}).ok());
  server.Stop();
}

// A client pipelines 2000 requests and reads nothing. Answering them all
// would queue ~125 MB of 64 KB replies on the server; once the queued
// replies pass the 1 MiB write watermark, the loop must stop running
// handlers until the client drains them — and then answer the rest,
// complete and in order.
TEST(NetAdversarialTest, PipelinedRequestsStopAtWriteWatermark) {
  BulkRmi rmi;
  MetricsRegistry metrics;
  dm::TcpRmiServer::Options options;
  options.reactor.loops = 1;
  options.reactor.write_high_watermark = 1u << 20;
  dm::TcpRmiServer server(&rmi, &metrics, options);
  ASSERT_TRUE(server.Start().ok());

  auto connected = net::TcpConnect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  net::TcpSocket socket = std::move(connected).value();
  ASSERT_TRUE(socket.SetRecvTimeout(5 * kMicrosPerSecond).ok());
  constexpr int kRequests = 2000;
  std::vector<uint8_t> burst;
  for (int i = 0; i < kRequests; ++i) {
    std::vector<uint8_t> frame = net::EncodeFrame(
        {static_cast<uint8_t>(i), static_cast<uint8_t>(i >> 8)});
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(socket.SendAll(burst.data(), burst.size()).ok());

  // Let the server run as far as it will: handler runs level off once the
  // socket buffers and the watermark are full.
  int64_t settled = -1;
  for (int i = 0; i < 100 && rmi.runs.load() != settled; ++i) {
    settled = rmi.runs.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_LT(settled, kRequests / 4)
      << "handlers kept running while the client read nothing";
  EXPECT_GE(metrics.GetCounter("net.backpressure_stalls")->Value(), 1);

  for (int i = 0; i < kRequests; ++i) {
    auto reply = net::RecvFrame(socket);
    ASSERT_TRUE(reply.ok()) << "reply " << i << ": "
                            << reply.status().ToString();
    ASSERT_EQ(reply.value().size(), 64u << 10) << "reply " << i;
    ASSERT_EQ(reply.value()[0], static_cast<uint8_t>(i)) << "reply " << i;
    ASSERT_EQ(reply.value()[1], static_cast<uint8_t>(i >> 8))
        << "reply " << i;
  }
  EXPECT_EQ(rmi.runs.load(), kRequests);
  server.Stop();
}

// Regression for the TcpChannel lazy-reconnect path: every failed call
// must close the old socket before (or instead of) adopting a new one.
// An "evil" server that answers each call with a corrupt frame forces the
// client through error -> disconnect -> reconnect on every iteration; any
// leaked fd per cycle fails the baseline check long before 500 cycles.
TEST(NetAdversarialTest, ReconnectAfterCorruptResponsesLeaksNoFds) {
  net::TcpListener listener;
  ASSERT_TRUE(listener.Listen().ok());
  std::thread evil([&listener] {
    while (true) {
      auto accepted = listener.Accept();
      if (!accepted.ok()) return;  // listener closed: test over
      net::TcpSocket socket = std::move(accepted).value();
      auto request = net::RecvFrame(socket);
      if (!request.ok()) continue;
      std::vector<uint8_t> frame = net::EncodeFrame({1, 2, 3, 4});
      frame.back() ^= 0xFF;  // corrupt the checksum
      socket.SendAll(frame.data(), frame.size());
      // Socket closes here; the client sees kCorruption first.
    }
  });

  dm::TcpChannel channel("127.0.0.1", listener.port(),
                         /*recv_timeout=*/kMicrosPerSecond);
  // Warm up one call so lazily-created fds are in the baseline.
  EXPECT_EQ(channel.Call({0}).status().code(), StatusCode::kCorruption);
  int baseline = OpenFdCount();
  for (int i = 0; i < 500; ++i) {
    auto response = channel.Call({static_cast<uint8_t>(i)});
    ASSERT_EQ(response.status().code(), StatusCode::kCorruption)
        << "call " << i << ": " << response.status().ToString();
  }
  if (baseline >= 0) {
    EXPECT_LE(OpenFdCount(), baseline + 4)
        << "TcpChannel leaked fds across reconnects";
  }
  listener.Close();
  evil.join();
}

}  // namespace
}  // namespace hedc
