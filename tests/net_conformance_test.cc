// Transport conformance for the reactor-served TCP servers
// (net/reactor.h). Every asserted code and payload is a constant, so the
// batteries pin the client-visible contract: framing round-trips,
// partial/coalesced writes, checksum corruption, hostile lengths, handler
// timeouts, mid-call Stop, restart, and trace-id propagation. The HTTP
// tier is additionally pinned byte-for-byte against golden transcripts
// recorded from the retired thread-per-connection engine. The suites keep
// their single "Reactor" instantiation so test names stay stable.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/node.h"
#include "dm/tcp_remote.h"
#include "web/http_tcp.h"

namespace hedc {
namespace {

// Transport-only handler: reverses the payload, so a response proves the
// exact request bytes crossed the wire intact.
class ReverseRmi : public dm::RmiHandler {
 public:
  std::vector<uint8_t> Handle(const std::vector<uint8_t>& request) override {
    std::vector<uint8_t> out = request;
    std::reverse(out.begin(), out.end());
    return out;
  }
};

// Handler that parks until released; lets tests hold a call in flight.
class LatchRmi : public dm::RmiHandler {
 public:
  std::vector<uint8_t> Handle(const std::vector<uint8_t>& request) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      entered_ = true;
      entered_cv_.notify_all();
    }
    std::unique_lock<std::mutex> lock(mu_);
    released_cv_.wait(lock, [this] { return released_; });
    return request;
  }

  void WaitUntilEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    entered_cv_.wait(lock, [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    released_cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable entered_cv_;
  std::condition_variable released_cv_;
  bool entered_ = false;
  bool released_ = false;
};

// Parks every call until released and records which thread ran it.
class ParkingThreadRmi : public dm::RmiHandler {
 public:
  std::vector<uint8_t> Handle(const std::vector<uint8_t>& request) override {
    std::unique_lock<std::mutex> lock(mu_);
    threads_.insert(std::this_thread::get_id());
    ++parked_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    return request;
  }
  // True once `n` calls are parked at the same time; false after 5 s.
  bool WaitForParked(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(5),
                        [&] { return parked_ >= n; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  std::set<std::thread::id> threads() {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int parked_ = 0;
  bool released_ = false;
  std::set<std::thread::id> threads_;
};

// Parks calls tagged kPark on a LatchRmi; echoes every other call.
class ParkTaggedRmi : public dm::RmiHandler {
 public:
  static constexpr uint8_t kPark = 0xFF;
  std::vector<uint8_t> Handle(const std::vector<uint8_t>& request) override {
    if (!request.empty() && request[0] == kPark) return latch.Handle(request);
    return request;
  }
  LatchRmi latch;
};

dm::TcpRmiServer::Options WithLoops(int loops) {
  dm::TcpRmiServer::Options options;
  options.reactor.loops = loops;
  return options;
}

// Four handlers parked at once on a 4-thread reactor run on four distinct
// reactor threads, none of them a caller's: every thread serves any
// connection.
TEST(ReactorLoopsTest, FourConnectionsRunOnFourLoops) {
  ParkingThreadRmi rmi;
  MetricsRegistry metrics;
  dm::TcpRmiServer server(&rmi, &metrics, WithLoops(4));
  ASSERT_TRUE(server.Start().ok());

  std::vector<Status> statuses(4);
  std::vector<std::thread::id> callers(4);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      callers[i] = std::this_thread::get_id();
      dm::TcpChannel channel("127.0.0.1", server.port(),
                             /*recv_timeout=*/10 * kMicrosPerSecond);
      statuses[i] = channel.Call({static_cast<uint8_t>(i)}).status();
    });
  }
  EXPECT_TRUE(rmi.WaitForParked(4));
  std::set<std::thread::id> served = rmi.threads();
  rmi.Release();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(served.size(), 4u);
  EXPECT_EQ(served.count(std::this_thread::get_id()), 0u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(served.count(callers[i]), 0u);
    EXPECT_TRUE(statuses[i].ok()) << statuses[i].ToString();
  }
  server.Stop();
}

// A handler blocks only its own loop: a call on a connection that sits on
// the other loop is answered while the first is parked.
TEST(ReactorLoopsTest, ParkedHandlerDoesNotDelayOtherLoop) {
  ParkTaggedRmi rmi;
  MetricsRegistry metrics;
  dm::TcpRmiServer server(&rmi, &metrics, WithLoops(2));
  ASSERT_TRUE(server.Start().ok());

  Status parked;
  std::thread caller([&] {
    dm::TcpChannel channel("127.0.0.1", server.port(),
                           /*recv_timeout=*/5 * kMicrosPerSecond);
    parked = channel.Call({ParkTaggedRmi::kPark}).status();
  });
  rmi.latch.WaitUntilEntered();
  dm::TcpChannel other("127.0.0.1", server.port(),
                       /*recv_timeout=*/kMicrosPerSecond);
  auto response = other.Call({1, 2, 3});
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  rmi.latch.Release();
  caller.join();
  EXPECT_TRUE(parked.ok()) << parked.ToString();
  server.Stop();
}

// No connection is stranded behind a parked handler while another thread
// is idle. With A, B and C opened in that order on 2 threads, a reactor
// that pins connections to threads (fewest open, ties round-robin) puts C
// beside A, so C's call would wait for A's handler.
TEST(ReactorLoopsTest, ParkedHandlerDoesNotStrandLaterConnection) {
  ParkTaggedRmi rmi;
  MetricsRegistry metrics;
  dm::TcpRmiServer server(&rmi, &metrics, WithLoops(2));
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::unique_ptr<dm::TcpChannel>> conns;  // A, B, C
  for (uint8_t i = 0; i < 3; ++i) {
    conns.push_back(std::make_unique<dm::TcpChannel>(
        "127.0.0.1", server.port(),
        /*recv_timeout=*/(i == 0 ? 5 : 1) * kMicrosPerSecond));
    ASSERT_TRUE(conns.back()->Call({i}).ok());  // connected, in order
  }
  Status parked;
  std::thread caller(
      [&] { parked = conns[0]->Call({ParkTaggedRmi::kPark}).status(); });
  rmi.latch.WaitUntilEntered();
  auto response = conns[2]->Call({7, 8, 9});
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  rmi.latch.Release();
  caller.join();
  EXPECT_TRUE(parked.ok()) << parked.ToString();
  server.Stop();
}

class TransportConformanceTest : public ::testing::TestWithParam<bool> {};

TEST_P(TransportConformanceTest, FramingRoundTripsAcrossSizes) {
  ReverseRmi rmi;
  MetricsRegistry metrics;
  dm::TcpRmiServer server(&rmi, &metrics);
  ASSERT_TRUE(server.Start().ok());

  dm::TcpChannel channel("127.0.0.1", server.port());
  for (size_t size : {size_t{0}, size_t{1}, size_t{7}, size_t{1024},
                      size_t{100 * 1000}}) {
    std::vector<uint8_t> payload(size);
    for (size_t i = 0; i < size; ++i) payload[i] = static_cast<uint8_t>(i);
    auto response = channel.Call(payload);
    ASSERT_TRUE(response.ok()) << "size " << size << ": "
                               << response.status().ToString();
    std::vector<uint8_t> expected = payload;
    std::reverse(expected.begin(), expected.end());
    EXPECT_EQ(response.value(), expected) << "size " << size;
  }
  // All five calls reused one keep-alive connection.
  EXPECT_EQ(metrics.GetCounter("remote.server.connections")->Value(), 1);
  EXPECT_EQ(metrics.GetCounter("remote.server.frames")->Value(), 5);
  server.Stop();
}

TEST_P(TransportConformanceTest, PartialAndCoalescedWritesParseIdentically) {
  ReverseRmi rmi;
  MetricsRegistry metrics;
  dm::TcpRmiServer server(&rmi, &metrics);
  ASSERT_TRUE(server.Start().ok());

  auto connected = net::TcpConnect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  net::TcpSocket socket = std::move(connected).value();

  // One frame dripped a byte at a time must parse exactly like one sent
  // whole.
  std::vector<uint8_t> dripped = net::EncodeFrame({1, 2, 3, 4, 5});
  for (uint8_t byte : dripped) {
    ASSERT_TRUE(socket.SendAll(&byte, 1).ok());
  }
  auto r1 = net::RecvFrame(socket);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1.value(), (std::vector<uint8_t>{5, 4, 3, 2, 1}));

  // Two frames coalesced into a single send must yield two in-order
  // responses.
  std::vector<uint8_t> coalesced = net::EncodeFrame({10, 11});
  std::vector<uint8_t> second = net::EncodeFrame({20, 21, 22});
  coalesced.insert(coalesced.end(), second.begin(), second.end());
  ASSERT_TRUE(socket.SendAll(coalesced.data(), coalesced.size()).ok());
  auto r2 = net::RecvFrame(socket);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value(), (std::vector<uint8_t>{11, 10}));
  auto r3 = net::RecvFrame(socket);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3.value(), (std::vector<uint8_t>{22, 21, 20}));
  server.Stop();
}

TEST_P(TransportConformanceTest, CorruptChecksumDropsConnection) {
  ReverseRmi rmi;
  MetricsRegistry metrics;
  dm::TcpRmiServer server(&rmi, &metrics);
  ASSERT_TRUE(server.Start().ok());

  auto connected = net::TcpConnect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  net::TcpSocket socket = std::move(connected).value();
  std::vector<uint8_t> frame = net::EncodeFrame({1, 2, 3});
  frame.back() ^= 0xFF;  // break the checksum
  ASSERT_TRUE(socket.SendAll(frame.data(), frame.size()).ok());

  // The server must drop the connection without answering: the client's
  // read observes EOF/reset (kUnavailable), never a response frame.
  auto response = net::RecvFrame(socket);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable)
      << response.status().ToString();
  EXPECT_EQ(metrics.GetCounter("remote.server.frames")->Value(), 0);
  server.Stop();
}

TEST_P(TransportConformanceTest, HostileLengthDropsConnection) {
  ReverseRmi rmi;
  MetricsRegistry metrics;
  dm::TcpRmiServer server(&rmi, &metrics);
  ASSERT_TRUE(server.Start().ok());

  auto connected = net::TcpConnect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  net::TcpSocket socket = std::move(connected).value();
  // Header claiming a ~4GB payload; the server must reject on the header
  // alone and drop the connection.
  uint8_t header[4] = {0xF0, 0xFF, 0xFF, 0xFF};
  ASSERT_TRUE(socket.SendAll(header, sizeof(header)).ok());

  auto response = net::RecvFrame(socket);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable)
      << response.status().ToString();
  EXPECT_EQ(metrics.GetCounter("remote.server.frames")->Value(), 0);
  server.Stop();
}

TEST_P(TransportConformanceTest, SlowHandlerHitsClientDeadlineAsTimeout) {
  LatchRmi rmi;
  MetricsRegistry metrics;
  dm::TcpRmiServer server(&rmi, &metrics);
  ASSERT_TRUE(server.Start().ok());

  dm::TcpChannel channel("127.0.0.1", server.port(),
                         /*recv_timeout=*/50 * kMicrosPerMilli);
  auto response = channel.Call({1, 2, 3});
  EXPECT_EQ(response.status().code(), StatusCode::kTimeout)
      << response.status().ToString();
  rmi.Release();  // let the parked handler finish so Stop can drain
  server.Stop();
}

TEST_P(TransportConformanceTest, StopMidCallYieldsUnavailable) {
  LatchRmi rmi;
  MetricsRegistry metrics;
  dm::TcpRmiServer server(&rmi, &metrics);
  ASSERT_TRUE(server.Start().ok());

  Status observed;
  std::thread caller([&] {
    dm::TcpChannel channel("127.0.0.1", server.port(),
                           /*recv_timeout=*/5 * kMicrosPerSecond);
    observed = channel.Call({7, 7, 7}).status();
  });
  rmi.WaitUntilEntered();
  // Stop drains the in-flight handler, so it must be released while Stop
  // is underway; the connection dies first either way.
  std::thread releaser([&rmi] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    rmi.Release();
  });
  server.Stop();
  caller.join();
  releaser.join();
  EXPECT_EQ(observed.code(), StatusCode::kUnavailable)
      << observed.ToString();
}

TEST_P(TransportConformanceTest, RestartServesOnFreshPort) {
  ReverseRmi rmi;
  MetricsRegistry metrics;
  dm::TcpRmiServer server(&rmi, &metrics);
  ASSERT_TRUE(server.Start().ok());
  int first_port = server.port();
  {
    dm::TcpChannel channel("127.0.0.1", first_port);
    ASSERT_TRUE(channel.Call({1}).ok());
  }
  server.Stop();
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);
  dm::TcpChannel channel("127.0.0.1", server.port());
  auto response = channel.Call({1, 2});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value(), (std::vector<uint8_t>{2, 1}));
  server.Stop();
}

TEST_P(TransportConformanceTest, TraceIdPropagatesThroughFullDmNode) {
  // Full DM node behind the TCP server: the RMI call header's trace id
  // must reach the server's trace log.
  cluster::ClusterNode node("conf", {});
  ASSERT_TRUE(node.Boot().ok());

  dm::TcpChannel channel("127.0.0.1", node.port());
  dm::RemoteDm remote(&channel);
  remote.set_trace_id(31337);
  auto rs = remote.Execute("SELECT COUNT(*) FROM users", {});
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();

  bool found = false;
  for (const TraceEvent& event : node.metrics()->traces().SnapshotTrace()) {
    if (event.trace_id == 31337 && event.component == "dm-remote") {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "trace id did not cross the wire";
}

INSTANTIATE_TEST_SUITE_P(Engines, TransportConformanceTest,
                         ::testing::Values(true),
                         [](const ::testing::TestParamInfo<bool>&) {
                           return "Reactor";
                         });

// ---------------------------------------------------------------------------
// HTTP tier
// ---------------------------------------------------------------------------

web::HttpResponse CannedHandler(const web::HttpRequest& request) {
  web::HttpResponse response;
  if (request.path == "/hello") {
    response.body = "hello " + request.GetQuery("name", "world") + "\n";
    response.set_cookies["visited"] = "1";
  } else if (request.path == "/echo") {
    response.content_type = "text/plain";
    response.body = request.method + " " + request.body;
  } else {
    response = web::HttpResponse::NotFound(request.path);
  }
  return response;
}

// Reads `n` bytes or fails the test.
std::vector<uint8_t> MustRecv(net::TcpSocket& socket, size_t n) {
  std::vector<uint8_t> bytes(n);
  EXPECT_TRUE(socket.RecvAll(bytes.data(), n).ok());
  return bytes;
}

// Reads exactly one HTTP response (headers + Content-Length body) as raw
// bytes, so the differential comparison sees the entire wire encoding.
std::vector<uint8_t> ReadOneHttpResponse(net::TcpSocket& socket) {
  std::vector<uint8_t> bytes;
  while (true) {
    uint8_t byte;
    if (!socket.RecvAll(&byte, 1).ok()) {
      ADD_FAILURE() << "connection died mid-response";
      return bytes;
    }
    bytes.push_back(byte);
    if (bytes.size() >= 4 &&
        std::string(bytes.end() - 4, bytes.end()) == "\r\n\r\n") {
      break;
    }
  }
  std::string head(bytes.begin(), bytes.end());
  size_t cl = head.find("Content-Length: ");
  EXPECT_NE(cl, std::string::npos);
  size_t body_len = std::strtoul(head.c_str() + cl + 16, nullptr, 10);
  std::vector<uint8_t> body = MustRecv(socket, body_len);
  bytes.insert(bytes.end(), body.begin(), body.end());
  return bytes;
}

std::vector<uint8_t> FetchRaw(int port, const std::string& request_text) {
  auto connected = net::TcpConnect("127.0.0.1", port);
  EXPECT_TRUE(connected.ok());
  net::TcpSocket socket = std::move(connected).value();
  EXPECT_TRUE(socket
                  .SendAll(reinterpret_cast<const uint8_t*>(
                               request_text.data()),
                           request_text.size())
                  .ok());
  return ReadOneHttpResponse(socket);
}

// The five transcripts were recorded once from the thread-per-connection
// engine the reactor replaced, so passing here keeps the reactor's wire
// bytes identical to it. Responses carry no Date header, which makes the
// bytes deterministic.
TEST(HttpConformanceTest, ResponsesAreByteIdenticalAcrossEngines) {
  MetricsRegistry metrics;
  web::HttpTcpServer server(CannedHandler, &metrics);
  ASSERT_TRUE(server.Start().ok());

  const struct {
    std::string request;
    std::string golden_response;
  } cases[] = {
      {"GET /hello?name=hedc HTTP/1.1\r\nHost: x\r\n\r\n",
       "HTTP/1.1 200 OK\r\n"
       "Content-Type: text/html\r\n"
       "Content-Length: 11\r\n"
       "Connection: keep-alive\r\n"
       "Set-Cookie: visited=1\r\n"
       "\r\n"
       "hello hedc\n"},
      {"GET /hello HTTP/1.0\r\n\r\n",
       "HTTP/1.1 200 OK\r\n"
       "Content-Type: text/html\r\n"
       "Content-Length: 12\r\n"
       "Connection: close\r\n"
       "Set-Cookie: visited=1\r\n"
       "\r\n"
       "hello world\n"},
      {"POST /echo HTTP/1.1\r\nContent-Length: 5\r\n\r\nabcde",
       "HTTP/1.1 200 OK\r\n"
       "Content-Type: text/plain\r\n"
       "Content-Length: 10\r\n"
       "Connection: keep-alive\r\n"
       "\r\n"
       "POST abcde"},
      {"GET /missing HTTP/1.1\r\nConnection: close\r\n\r\n",
       "HTTP/1.1 404 Not Found\r\n"
       "Content-Type: text/html\r\n"
       "Content-Length: 53\r\n"
       "Connection: close\r\n"
       "\r\n"
       "<html><body><h1>404</h1><p>/missing</p></body></html>"},
      // Malformed: answered with a 400 and the connection closed.
      {"BROKEN\r\n\r\n",
       "HTTP/1.1 400 Bad Request\r\n"
       "Content-Type: text/html\r\n"
       "Content-Length: 62\r\n"
       "Connection: close\r\n"
       "\r\n"
       "<html><body><h1>400</h1><p>malformed request</p></body></html>"},
  };
  for (const auto& c : cases) {
    std::vector<uint8_t> bytes = FetchRaw(server.port(), c.request);
    EXPECT_EQ(std::string(bytes.begin(), bytes.end()), c.golden_response)
        << "diverged from the golden transcript on request:\n"
        << c.request;
  }
  server.Stop();
}

class HttpEngineTest : public ::testing::TestWithParam<bool> {};

TEST_P(HttpEngineTest, KeepAliveCarriesManySequentialRequests) {
  MetricsRegistry metrics;
  web::HttpTcpServer server(CannedHandler, &metrics);
  ASSERT_TRUE(server.Start().ok());

  auto connected = net::TcpConnect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  net::TcpSocket socket = std::move(connected).value();
  for (int i = 0; i < 50; ++i) {
    std::string request = "GET /hello?name=req" + std::to_string(i) +
                          " HTTP/1.1\r\nHost: x\r\n\r\n";
    ASSERT_TRUE(
        socket
            .SendAll(reinterpret_cast<const uint8_t*>(request.data()),
                     request.size())
            .ok());
    std::vector<uint8_t> response = ReadOneHttpResponse(socket);
    std::string text(response.begin(), response.end());
    EXPECT_NE(text.find("200 OK"), std::string::npos);
    EXPECT_NE(text.find("hello req" + std::to_string(i)), std::string::npos);
  }
  // One connection served all 50 requests.
  EXPECT_EQ(metrics.GetCounter("web.http_connections")->Value(), 1);
  EXPECT_EQ(metrics.GetCounter("web.http_requests")->Value(), 50);
  server.Stop();
}

TEST_P(HttpEngineTest, ConnectionCloseIsHonored) {
  MetricsRegistry metrics;
  web::HttpTcpServer server(CannedHandler, &metrics);
  ASSERT_TRUE(server.Start().ok());

  auto connected = net::TcpConnect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  net::TcpSocket socket = std::move(connected).value();
  std::string request =
      "GET /hello HTTP/1.1\r\nConnection: close\r\n\r\n";
  ASSERT_TRUE(socket
                  .SendAll(reinterpret_cast<const uint8_t*>(request.data()),
                           request.size())
                  .ok());
  std::vector<uint8_t> response = ReadOneHttpResponse(socket);
  std::string text(response.begin(), response.end());
  EXPECT_NE(text.find("Connection: close"), std::string::npos);
  // The server closes after the response: the next read sees EOF.
  uint8_t byte;
  EXPECT_EQ(socket.RecvAll(&byte, 1).code(), StatusCode::kUnavailable);
  server.Stop();
}

INSTANTIATE_TEST_SUITE_P(Engines, HttpEngineTest,
                         ::testing::Values(true),
                         [](const ::testing::TestParamInfo<bool>&) {
                           return "Reactor";
                         });

}  // namespace
}  // namespace hedc
