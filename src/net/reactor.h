// Shared epoll reactor for the web and RMI transports (C10K; ROADMAP 3).
//
// A thread-per-connection server caps concurrent clients at thread scale —
// nowhere near the paper's growing-user-base story (§6.1) once keep-alive
// browsers and cluster channel fan-out are real. Reactor is the one engine
// under both socket servers (web::HttpTcpServer and dm::TcpRmiServer). It
// runs N threads, one per core by default, over one shared epoll set.
// Sockets are nonblocking, reads accumulate into a per-connection buffer
// that a pluggable ReactorProtocol parses incrementally (the
// [u32 len][payload][u32 crc32] RMI framing and HTTP/1.1 each provide one),
// and the protocol runs the request's handler inline on the thread that
// took the connection's event, so a request never crosses threads. Replies
// are written with backpressure (reading and parsing pause above a
// write-buffer watermark) and idle / incomplete-request / stalled-write
// connections are reaped by deadline sweeps. One Reactor instance can carry
// many listeners — a whole cluster's RMI ports plus the web tier — so the
// thread count is `loops`, not O(connections).
//
// No connection is pinned to a thread. Listeners sit level-triggered in
// the set, so any idle thread accepts. Connections are armed one-shot: the
// thread that takes an event owns that connection until it re-arms it at
// the end of service, which keeps one request in flight per connection and
// replies in request order. A handler that blocks holds one thread and
// its own connection; every other connection is served by the rest.
//
// Threading contract: ReactorProtocol callbacks and handlers run on a
// reactor thread; Reactor's public methods are thread-safe but must not be
// called from a reactor thread (CloseListener and Stop wait for running
// handlers).
//
// Connection-lifecycle metrics (per Options::metrics registry):
//   net.accepts, net.conns_open (gauge), net.requests, net.timeouts,
//   net.backpressure_stalls, net.protocol_errors, net.accept_errors,
//   net.oversized_frames (bumped by protocols).
#ifndef HEDC_NET_REACTOR_H_
#define HEDC_NET_REACTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
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

// Serving-thread view of a connection handed to ReactorProtocol::OnData.
// Valid only for the duration of that call.
class ReactorContext {
 public:
  // Answers the request just parsed. The protocol computes `reply` inline
  // (it runs the handler itself, on the serving thread); the reactor writes
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
// created by the listener's factory; calls are never concurrent, and each
// is ordered after the previous one, though they may run on any thread).
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
    // Threads serving the shared epoll set, each running one handler at a
    // time; 0 = std::thread::hardware_concurrency().
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
  // Closes every listener, then joins the threads. Idempotent; Start()
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
  // Closes the listener and all its connections. A handler still running
  // when this is called has its reply dropped; after return no handler of
  // this listener runs, so the handlers behind `factory` may be destroyed.
  void CloseListener(int id);

  // Connections currently open across all listeners.
  int64_t conns_open() const;

 private:
  struct Conn;
  struct ListenerState;

  void ThreadMain();
  void AcceptReady(int listener_id);
  // Takes connection `id` for the calling thread, serves `events` and
  // hands it back (re-armed, or closed).
  void Serve(uint64_t id, uint32_t events);
  // Serve helpers; false means the connection must be closed.
  bool ReadConn(Conn* c);
  bool ParseConn(Conn* c);
  bool FlushConn(Conn* c);
  void MaybeSweep();
  // Outside mu_: closes a connection already taken out of conns_ and
  // frees it.
  void CloseConn(std::unique_ptr<Conn> conn);

  Options options_;
  MetricsRegistry* metrics_ = nullptr;
  Counter* accepts_ = nullptr;
  Counter* requests_ = nullptr;
  Counter* timeouts_ = nullptr;
  Counter* stalls_ = nullptr;
  Counter* protocol_errors_ = nullptr;
  Counter* accept_errors_ = nullptr;
  Gauge* conns_open_ = nullptr;

  mutable std::mutex state_mu_;
  bool running_ = false;
  int epoll_fd_ = -1;
  int stop_fd_ = -1;  // eventfd, written once by Stop and never drained

  // Guards the listener and connection maps and every hand-off of a
  // connection between threads: a thread takes a connection (busy) and
  // hands it back under this mutex, so what one serving thread wrote is
  // visible to the next.
  std::mutex mu_;
  // Signalled when a closed listener's busy count drops to 0.
  std::condition_variable idle_cv_;
  int next_listener_id_ = 0;
  std::map<int, std::shared_ptr<ListenerState>> listeners_;
  uint64_t next_conn_id_ = 1;  // never reused, so stale events miss
  std::map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t sweep_cursor_ = 0;  // deadline sweep resumes at upper_bound(this)
  std::atomic<Micros> next_sweep_us_{0};

  std::vector<std::thread> threads_;  // last: they run over the above
};

}  // namespace hedc::net

#endif  // HEDC_NET_REACTOR_H_
