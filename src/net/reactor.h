// Shared epoll reactor for the web and RMI transports (C10K; ROADMAP 3).
//
// A thread-per-connection server caps concurrent clients at thread scale —
// nowhere near the paper's growing-user-base story (§6.1) once keep-alive
// browsers and cluster channel fan-out are real. Reactor is the one engine
// under both socket servers (web::HttpTcpServer and dm::TcpRmiServer). It is
// one event loop that owns every connection: sockets are nonblocking and
// edge-triggered, reads accumulate into a per-connection buffer that a
// pluggable ReactorProtocol parses incrementally (the
// [u32 len][payload][u32 crc32] RMI framing and HTTP/1.1 each provide one),
// and completed requests execute on a small worker pool so a slow handler
// never stalls the loop. Responses are queued back onto the loop thread,
// written with backpressure (reading pauses above a write-buffer watermark),
// and idle / incomplete-request / stalled-write connections are reaped by
// deadline sweeps. One Reactor instance can carry many listeners — a whole
// cluster's RMI ports plus the web tier — which is what makes many-nodes x
// many-channels affordable: the thread count is O(workers), not
// O(connections).
//
// Threading contract: ReactorProtocol callbacks run on the loop thread;
// dispatched work runs on the worker pool; Reactor's public methods are
// thread-safe but must not be called from the loop thread itself
// (CloseListener and Stop block on the loop draining).
//
// Connection-lifecycle metrics (per Options::metrics registry):
//   net.accepts, net.conns_open (gauge), net.requests, net.timeouts,
//   net.backpressure_stalls, net.protocol_errors, net.oversized_frames
//   (bumped by protocols), net.loop_lag_us (queue->loop latency histogram).
#ifndef HEDC_NET_REACTOR_H_
#define HEDC_NET_REACTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
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
#include "core/thread_pool.h"

namespace hedc::net {

class Reactor;

// Bytes a dispatched request handler sends back on its connection.
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
  // Queues `work` on the worker pool. Its reply is written back on the
  // loop thread and parsing resumes afterwards; the reactor never calls
  // OnData again while a dispatch is pending, so one connection executes
  // one request at a time and responses stay in request order.
  void Dispatch(std::function<ReactorReply()> work);
  // Drops the connection (framing violation, hostile length, ...).
  void Close();

 private:
  friend class Reactor;
  ReactorContext(Reactor* reactor, uint64_t conn_id)
      : reactor_(reactor), conn_id_(conn_id) {}

  Reactor* reactor_;
  uint64_t conn_id_;
  bool dispatched_ = false;
  bool close_ = false;
};

// Per-connection protocol state machine (one instance per connection,
// created by the listener's factory; all calls on the loop thread).
class ReactorProtocol {
 public:
  virtual ~ReactorProtocol() = default;

  // Parses buffered input. `data`/`n` is everything received and not yet
  // consumed; returns how many leading bytes were consumed. May call
  // ctx->Dispatch() at most once (for the first complete request found)
  // or ctx->Close() on a protocol violation. Returning 0 without
  // dispatching means "need more bytes".
  virtual size_t OnData(const uint8_t* data, size_t n,
                        ReactorContext* ctx) = 0;
};

class Reactor {
 public:
  struct Options {
    // Request-execution threads (>= 1). The loop itself never executes
    // handlers.
    int workers = 2;
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
    // Pause reading when a connection's queued writes exceed this;
    // resume when fully drained (net.backpressure_stalls counts pauses).
    size_t write_high_watermark = 4u << 20;
    int listen_backlog = 1024;
    // nullptr = MetricsRegistry::Default().
    MetricsRegistry* metrics = nullptr;

    // Reads net.workers, net.idle_timeout_ms, net.read_timeout_ms,
    // net.write_timeout_ms, net.write_high_watermark.
    static Options FromConfig(const Config& config);
  };

  Reactor();
  explicit Reactor(Options options);
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  Status Start();
  // Closes every listener (draining their in-flight requests), joins the
  // workers and the loop. Idempotent; Start() afterwards reboots.
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
  // Closes the listener and all its connections, then waits until every
  // dispatched request that entered through it has finished executing —
  // after return the handlers behind `factory` may be destroyed.
  void CloseListener(int id);

  // Connections currently open across all listeners (loop-maintained).
  int64_t conns_open() const;

 private:
  friend class ReactorContext;

  struct Conn;
  struct ListenerState;
  struct Task {
    Micros enqueued_us = 0;
    std::function<void()> fn;
  };
  struct WorkItem {
    uint64_t conn_id = 0;
    std::function<ReactorReply()> work;
    std::shared_ptr<ListenerState> listener;
  };
  enum class CloseReason { kNormal, kTimeout, kProtocol, kOverflow, kError };

  void LoopMain();
  void WorkerMain();
  void RunPostedTasks();
  // Enqueues `fn` onto the loop thread (no-op once the loop is gone).
  void Post(std::function<void()> fn);
  void Wake();

  void AcceptReady(int listener_id);
  // The Conn helpers return false when they closed (and freed) the
  // connection, so callers stop touching it.
  bool ReadConn(Conn* c);
  bool ParseConn(Conn* c);
  bool FlushConn(Conn* c);
  bool MaybeCloseOnEof(Conn* c);
  void QueueWrite(Conn* c, std::vector<uint8_t> bytes);
  void CloseConn(Conn* c, CloseReason reason);
  void UpdateInterest(Conn* c);
  void SweepDeadlines(Micros now);
  void DispatchWork(uint64_t conn_id, std::function<ReactorReply()> work);
  void OnReplyReady(uint64_t conn_id, ReactorReply reply);

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
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread loop_thread_;
  std::vector<std::thread> worker_threads_;
  std::unique_ptr<BoundedQueue<WorkItem>> work_queue_;

  std::mutex task_mu_;
  bool accepting_tasks_ = false;
  std::vector<Task> tasks_;
  std::atomic<bool> stop_loop_{false};

  mutable std::mutex listeners_mu_;
  int next_listener_id_ = 0;
  std::map<int, std::shared_ptr<ListenerState>> listeners_;

  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;

  // --- loop-thread-only state ------------------------------------------
  uint64_t next_conn_id_ = 1;
  std::map<uint64_t, std::unique_ptr<Conn>> conns_;
  Micros last_sweep_us_ = 0;
  uint64_t sweep_cursor_ = 0;  // deadline sweep resumes at upper_bound(this)
};

}  // namespace hedc::net

#endif  // HEDC_NET_REACTOR_H_
