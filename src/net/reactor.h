// Shared epoll reactor for the web and RMI transports (C10K; ROADMAP 3).
//
// A thread-per-connection server caps concurrent clients at thread scale —
// nowhere near the paper's growing-user-base story (§6.1) once keep-alive
// browsers and cluster channel fan-out are real. Reactor is the one engine
// under both socket servers (web::HttpTcpServer and dm::TcpRmiServer). It
// runs N event loops, one per core by default. Each loop owns an epoll
// set, an eventfd and the connections assigned to it: sockets are
// nonblocking and edge-triggered, reads accumulate into a per-connection
// buffer that a pluggable ReactorProtocol parses incrementally (the
// [u32 len][payload][u32 crc32] RMI framing and HTTP/1.1 each provide one),
// and the protocol runs the request's handler inline on the loop thread,
// so a request never crosses threads. Replies are written with
// backpressure (reading and parsing pause above a write-buffer watermark)
// and idle / incomplete-request / stalled-write connections are reaped by
// deadline sweeps. One more loop accepts for every listener and hands
// each new connection to the serving loop with the fewest open ones. One
// Reactor instance can carry many listeners — a whole cluster's RMI ports
// plus the web tier — so the thread count is loops + 1, not
// O(connections).
//
// A loop runs one handler at a time: a handler that blocks stalls the
// other connections on its loop, and only those.
//
// Threading contract: ReactorProtocol callbacks and handlers run on the
// owning loop's thread; Reactor's public methods are thread-safe but must
// not be called from a loop thread (CloseListener and Stop block on every
// loop running their close).
//
// Connection-lifecycle metrics (per Options::metrics registry):
//   net.accepts, net.conns_open (gauge), net.requests, net.timeouts,
//   net.backpressure_stalls, net.protocol_errors, net.oversized_frames
//   (bumped by protocols), net.loop_lag_us (post->loop latency histogram).
#ifndef HEDC_NET_REACTOR_H_
#define HEDC_NET_REACTOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/clock.h"
#include "core/config.h"
#include "core/metrics.h"
#include "core/status.h"

namespace hedc::net {

// Bytes a request handler sends back on its connection.
struct ReactorReply {
  std::vector<uint8_t> bytes;
  // Drop the connection once the reply has been flushed (HTTP
  // "Connection: close"; protocol-level rejections).
  bool close_after = false;
};

// Loop-thread view of a connection handed to ReactorProtocol::OnData.
// Valid only for the duration of that call.
class ReactorContext {
 public:
  // Answers the request just parsed. The protocol computes `reply` inline
  // (it runs the handler itself, on the loop thread); the reactor writes
  // it before parsing the connection's next request, so responses stay in
  // request order.
  void Reply(ReactorReply reply) {
    reply_ = std::move(reply);
    replied_ = true;
  }
  // Drops the connection (framing violation, hostile length, ...).
  void Close() { close_ = true; }

 private:
  friend class Reactor;
  ReactorContext() = default;

  ReactorReply reply_;
  bool replied_ = false;
  bool close_ = false;
};

// Per-connection protocol state machine (one instance per connection,
// created by the listener's factory; all calls on the connection's loop).
class ReactorProtocol {
 public:
  virtual ~ReactorProtocol() = default;

  // Parses buffered input. `data`/`n` is everything received and not yet
  // consumed; returns how many leading bytes were consumed. May call
  // ctx->Reply() at most once (for the first complete request found) or
  // ctx->Close() on a protocol violation. Returning 0 without replying
  // means "need more bytes".
  virtual size_t OnData(const uint8_t* data, size_t n,
                        ReactorContext* ctx) = 0;
};

class Reactor {
 public:
  struct Options {
    // Serving event loops, one thread each; 0 =
    // std::thread::hardware_concurrency(). Each loop runs its connections'
    // handlers, one at a time. (The accepting loop is one more thread.)
    int loops = 0;
    // Close connections with no traffic at all for this long (0 = never).
    Micros idle_timeout = 30 * kMicrosPerSecond;
    // Close connections whose current request has been incomplete for
    // this long — slowloris drips die here even when every byte resets
    // the idle clock (0 = never).
    Micros read_timeout = 10 * kMicrosPerSecond;
    // Close connections whose peer has not drained queued writes for
    // this long (0 = never).
    Micros write_timeout = 10 * kMicrosPerSecond;
    // Per-connection cap on buffered unparsed input; protects against
    // floods that never form a parseable request.
    size_t max_in_buffer = 64u << 20;
    // Pause reading and parsing when a connection's queued writes exceed
    // this; resume when fully drained (net.backpressure_stalls counts
    // pauses).
    size_t write_high_watermark = 4u << 20;
    int listen_backlog = 1024;
    // nullptr = MetricsRegistry::Default().
    MetricsRegistry* metrics = nullptr;

    // Reads net.loops, net.idle_timeout_ms, net.read_timeout_ms,
    // net.write_timeout_ms, net.write_high_watermark.
    static Options FromConfig(const Config& config);
  };

  Reactor();
  explicit Reactor(Options options);
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  Status Start();
  // Closes every listener, then joins the loops. Idempotent; Start()
  // afterwards reboots.
  void Stop();
  bool running() const;

  using ProtocolFactory = std::function<std::unique_ptr<ReactorProtocol>()>;

  struct ListenerInfo {
    int id = -1;
    int port = 0;
  };
  // Binds 127.0.0.1:`port` (0 = ephemeral) and serves each accepted
  // connection with a fresh protocol from `factory`.
  Result<ListenerInfo> AddListener(int port, ProtocolFactory factory);
  // Closes the listener and all its connections on every loop. A handler
  // still running when this is called has its reply dropped; after return
  // no handler of this listener runs, so the handlers behind `factory`
  // may be destroyed.
  void CloseListener(int id);

  // Connections currently open across all listeners (loop-maintained).
  int64_t conns_open() const;

 private:
  struct Conn;
  struct ListenerState;
  class Loop;

  // Acceptor side: the loop with the fewest open connections, ties
  // broken round-robin.
  Loop* PickLoop();

  Options options_;
  MetricsRegistry* metrics_ = nullptr;
  Counter* accepts_ = nullptr;
  Counter* requests_ = nullptr;
  Counter* timeouts_ = nullptr;
  Counter* stalls_ = nullptr;
  Counter* protocol_errors_ = nullptr;
  Counter* accept_errors_ = nullptr;
  Gauge* conns_open_ = nullptr;
  Histogram* loop_lag_ = nullptr;

  mutable std::mutex state_mu_;
  bool running_ = false;
  // loops_[0] accepts for every listener and serves no connection, so a
  // blocked handler never delays an accept; loops_[1..loops] serve.
  std::vector<std::unique_ptr<Loop>> loops_;
  size_t next_loop_ = 0;  // acceptor-only round-robin cursor

  mutable std::mutex listeners_mu_;
  int next_listener_id_ = 0;
  std::map<int, std::shared_ptr<ListenerState>> listeners_;
};

}  // namespace hedc::net

#endif  // HEDC_NET_REACTOR_H_
