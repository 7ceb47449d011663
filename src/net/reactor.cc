#include "net/reactor.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace hedc::net {

namespace {

// epoll user-data encoding: the wake eventfd, listeners (tagged ids) and
// connections (plain ids; next_conn_id_ never reaches the tag bit).
constexpr uint64_t kWakeTag = ~uint64_t{0};
constexpr uint64_t kListenerTag = uint64_t{1} << 63;

// Sweep cadence for the deadline reaper; also the epoll_wait timeout, so
// an idle loop wakes ~20x/s.
constexpr int kSweepMs = 50;

Status Errno(const std::string& what) {
  return Status::Unavailable(what + ": " + std::strerror(errno));
}

void SetNonBlockingNodelay(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Reactor::Options Reactor::Options::FromConfig(const Config& config) {
  Options options;
  options.workers =
      static_cast<int>(config.GetInt("net.workers", options.workers));
  options.idle_timeout = config.GetInt("net.idle_timeout_ms",
                                       options.idle_timeout / kMicrosPerMilli) *
                         kMicrosPerMilli;
  options.read_timeout = config.GetInt("net.read_timeout_ms",
                                       options.read_timeout / kMicrosPerMilli) *
                         kMicrosPerMilli;
  options.write_timeout =
      config.GetInt("net.write_timeout_ms",
                    options.write_timeout / kMicrosPerMilli) *
      kMicrosPerMilli;
  options.write_high_watermark = static_cast<size_t>(config.GetInt(
      "net.write_high_watermark",
      static_cast<int64_t>(options.write_high_watermark)));
  return options;
}

// All fields are loop-thread-only; worker threads reach a connection only
// by id through Post().
struct Reactor::Conn {
  uint64_t id = 0;
  int fd = -1;
  int listener_id = -1;
  std::unique_ptr<ReactorProtocol> protocol;

  std::vector<uint8_t> in;  // received, not yet consumed (from in_head)
  size_t in_head = 0;

  std::deque<std::vector<uint8_t>> out;
  size_t out_head = 0;   // sent prefix of out.front()
  size_t out_bytes = 0;  // total queued

  bool want_write = false;  // EPOLLOUT armed
  bool paused = false;      // EPOLLIN dropped (backpressure)
  bool dispatch_pending = false;
  bool close_after_flush = false;
  bool peer_eof = false;

  Micros last_activity = 0;
  Micros request_start = 0;      // first byte of an incomplete request
  Micros write_stall_start = 0;  // writes blocked since (0 = none)
};

struct Reactor::ListenerState {
  int id = -1;
  int fd = -1;
  int port = 0;
  ProtocolFactory factory;
  std::atomic<int64_t> inflight{0};
  bool closed = false;  // guarded by listeners_mu_
};

void ReactorContext::Dispatch(std::function<ReactorReply()> work) {
  dispatched_ = true;
  reactor_->DispatchWork(conn_id_, std::move(work));
}

void ReactorContext::Close() { close_ = true; }

Reactor::Reactor() : Reactor(Options()) {}

Reactor::Reactor(Options options) : options_(options) {
  if (options_.workers < 1) options_.workers = 1;
  metrics_ = options_.metrics != nullptr ? options_.metrics
                                         : MetricsRegistry::Default();
  accepts_ = metrics_->GetCounter("net.accepts");
  requests_ = metrics_->GetCounter("net.requests");
  timeouts_ = metrics_->GetCounter("net.timeouts");
  stalls_ = metrics_->GetCounter("net.backpressure_stalls");
  protocol_errors_ = metrics_->GetCounter("net.protocol_errors");
  accept_errors_ = metrics_->GetCounter("net.accept_errors");
  conns_open_ = metrics_->GetGauge("net.conns_open");
  loop_lag_ = metrics_->GetHistogram("net.loop_lag_us");
}

Reactor::~Reactor() { Stop(); }

bool Reactor::running() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return running_;
}

int64_t Reactor::conns_open() const { return conns_open_->Value(); }

Status Reactor::Start() {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (running_) return Status::FailedPrecondition("reactor already running");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    Status s = Errno("eventfd");
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return s;
  }
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  stop_loop_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> task_lock(task_mu_);
    accepting_tasks_ = true;
    tasks_.clear();
  }
  work_queue_ = std::make_unique<BoundedQueue<WorkItem>>(8192);
  for (int i = 0; i < options_.workers; ++i) {
    worker_threads_.emplace_back([this] { WorkerMain(); });
  }
  loop_thread_ = std::thread([this] { LoopMain(); });
  running_ = true;
  return Status::Ok();
}

void Reactor::Stop() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (!running_) return;
    running_ = false;
  }
  // Drain every listener first — this fails their connections and waits
  // out in-flight handler executions while the loop is still alive.
  std::vector<int> ids;
  {
    std::lock_guard<std::mutex> lock(listeners_mu_);
    for (const auto& [id, state] : listeners_) ids.push_back(id);
  }
  for (int id : ids) CloseListener(id);

  work_queue_->Close();
  for (std::thread& t : worker_threads_) {
    if (t.joinable()) t.join();
  }
  worker_threads_.clear();

  stop_loop_.store(true, std::memory_order_release);
  Wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    // The loop is gone; late Post() callers must not enqueue forever.
    std::lock_guard<std::mutex> lock(task_mu_);
    accepting_tasks_ = false;
    tasks_.clear();
  }
  work_queue_.reset();
  ::close(wake_fd_);
  wake_fd_ = -1;
  ::close(epoll_fd_);
  epoll_fd_ = -1;
}

Result<Reactor::ListenerInfo> Reactor::AddListener(int port,
                                                   ProtocolFactory factory) {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (!running_) return Status::FailedPrecondition("reactor not running");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status s = Errno("bind 127.0.0.1:" + std::to_string(port));
    ::close(fd);
    return s;
  }
  if (::listen(fd, options_.listen_backlog) != 0) {
    Status s = Errno("listen");
    ::close(fd);
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) !=
      0) {
    Status s = Errno("getsockname");
    ::close(fd);
    return s;
  }

  auto state = std::make_shared<ListenerState>();
  state->fd = fd;
  state->port = ntohs(addr.sin_port);
  state->factory = std::move(factory);
  {
    std::lock_guard<std::mutex> lock(listeners_mu_);
    state->id = next_listener_id_++;
    listeners_[state->id] = state;
  }
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;  // level-triggered accept: no drain races
  ev.data.u64 = kListenerTag | static_cast<uint64_t>(state->id);
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    Status s = Errno("epoll_ctl(listener)");
    {
      std::lock_guard<std::mutex> lock(listeners_mu_);
      listeners_.erase(state->id);
    }
    ::close(fd);
    return s;
  }
  return ListenerInfo{state->id, state->port};
}

void Reactor::CloseListener(int id) {
  std::shared_ptr<ListenerState> state;
  {
    std::lock_guard<std::mutex> lock(listeners_mu_);
    auto it = listeners_.find(id);
    if (it == listeners_.end() || it->second->closed) return;
    it->second->closed = true;
    state = it->second;
  }
  // The loop owns the listener fd and its connections; close them there.
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  Post([this, id, fd = state->fd, &done_mu, &done_cv, &done] {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    std::vector<uint64_t> doomed;
    for (const auto& [conn_id, conn] : conns_) {
      if (conn->listener_id == id) doomed.push_back(conn_id);
    }
    for (uint64_t conn_id : doomed) {
      auto it = conns_.find(conn_id);
      if (it != conns_.end()) CloseConn(it->second.get(), CloseReason::kNormal);
    }
    std::lock_guard<std::mutex> lock(done_mu);
    done = true;
    done_cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&done] { return done; });
  }
  // Wait out handler executions that entered through this listener, so
  // the caller may free the handlers behind the protocol factory.
  {
    std::unique_lock<std::mutex> lock(inflight_mu_);
    inflight_cv_.wait(lock, [&state] {
      return state->inflight.load(std::memory_order_acquire) == 0;
    });
  }
  std::lock_guard<std::mutex> lock(listeners_mu_);
  listeners_.erase(id);
}

void Reactor::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    if (!accepting_tasks_) return;
    tasks_.push_back(Task{SteadyNowUs(), std::move(fn)});
  }
  Wake();
}

void Reactor::Wake() {
  uint64_t one = 1;
  ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
  (void)ignored;
}

void Reactor::RunPostedTasks() {
  std::vector<Task> batch;
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    batch.swap(tasks_);
  }
  Micros now = SteadyNowUs();
  for (Task& task : batch) {
    loop_lag_->Observe(now - task.enqueued_us);
    task.fn();
  }
}

void Reactor::WorkerMain() {
  while (true) {
    std::optional<WorkItem> item = work_queue_->Pop();
    if (!item.has_value()) return;
    ReactorReply reply = item->work();
    // Decrement before posting: the reply is plain data, so once the
    // count hits zero the handlers may be torn down safely.
    item->listener->inflight.fetch_sub(1, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      inflight_cv_.notify_all();
    }
    uint64_t conn_id = item->conn_id;
    Post([this, conn_id, reply = std::move(reply)]() mutable {
      OnReplyReady(conn_id, std::move(reply));
    });
  }
}

void Reactor::DispatchWork(uint64_t conn_id,
                           std::function<ReactorReply()> work) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn* c = it->second.get();
  std::shared_ptr<ListenerState> listener;
  {
    std::lock_guard<std::mutex> lock(listeners_mu_);
    auto lit = listeners_.find(c->listener_id);
    if (lit == listeners_.end()) return;
    listener = lit->second;
  }
  c->dispatch_pending = true;
  requests_->Add();
  listener->inflight.fetch_add(1, std::memory_order_acq_rel);
  work_queue_->Push(WorkItem{conn_id, std::move(work), std::move(listener)});
}

void Reactor::OnReplyReady(uint64_t conn_id, ReactorReply reply) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // connection died while executing
  Conn* c = it->second.get();
  c->dispatch_pending = false;
  if (!reply.bytes.empty()) QueueWrite(c, std::move(reply.bytes));
  if (reply.close_after) c->close_after_flush = true;
  if (!FlushConn(c)) return;
  if (!ParseConn(c)) return;
  MaybeCloseOnEof(c);
}

void Reactor::LoopMain() {
  std::vector<struct epoll_event> events(256);
  while (true) {
    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), kSweepMs);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    RunPostedTasks();
    if (stop_loop_.load(std::memory_order_acquire)) break;
    for (int i = 0; i < n; ++i) {
      uint64_t tag = events[i].data.u64;
      uint32_t ev = events[i].events;
      if (tag == kWakeTag) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if ((tag & kListenerTag) != 0) {
        AcceptReady(static_cast<int>(tag & ~kListenerTag));
        continue;
      }
      auto it = conns_.find(tag);
      if (it == conns_.end()) continue;  // closed earlier this round
      Conn* c = it->second.get();
      if ((ev & EPOLLOUT) != 0) {
        if (!FlushConn(c)) continue;
      }
      if ((ev & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0) {
        if (!ReadConn(c)) continue;
        if (!ParseConn(c)) continue;
        if (!MaybeCloseOnEof(c)) continue;
      }
    }
    Micros now = SteadyNowUs();
    if (now - last_sweep_us_ >= kSweepMs * kMicrosPerMilli) {
      last_sweep_us_ = now;
      SweepDeadlines(now);
    }
  }
  // Loop teardown: whatever connections remain (listeners are already
  // drained on the Stop path) are dropped here, on the owning thread.
  while (!conns_.empty()) {
    CloseConn(conns_.begin()->second.get(), CloseReason::kNormal);
  }
}

void Reactor::AcceptReady(int listener_id) {
  std::shared_ptr<ListenerState> listener;
  {
    std::lock_guard<std::mutex> lock(listeners_mu_);
    auto it = listeners_.find(listener_id);
    if (it == listeners_.end() || it->second->closed) return;
    listener = it->second;
  }
  while (true) {
    int fd = ::accept4(listener->fd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // EMFILE/ENFILE and transient network errors: count and let the
      // backlog hold the rest; the next readiness event retries.
      accept_errors_->Add();
      return;
    }
    SetNonBlockingNodelay(fd);
    auto conn = std::make_unique<Conn>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conn->listener_id = listener_id;
    conn->protocol = listener->factory();
    conn->last_activity = SteadyNowUs();
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      accept_errors_->Add();
      continue;
    }
    accepts_->Add();
    conns_open_->Add(1);
    conns_[conn->id] = std::move(conn);
  }
}

bool Reactor::ReadConn(Conn* c) {
  if (c->paused) return true;  // backpressure: interest is off, skip
  uint8_t buf[16384];
  while (true) {
    ssize_t r = ::recv(c->fd, buf, sizeof(buf), 0);
    if (r > 0) {
      if (c->in.size() - c->in_head + static_cast<size_t>(r) >
          options_.max_in_buffer) {
        CloseConn(c, CloseReason::kOverflow);
        return false;
      }
      c->in.insert(c->in.end(), buf, buf + r);
      c->last_activity = SteadyNowUs();
      continue;
    }
    if (r == 0) {
      c->peer_eof = true;
      return true;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    CloseConn(c, CloseReason::kError);  // ECONNRESET and friends
    return false;
  }
}

bool Reactor::ParseConn(Conn* c) {
  while (!c->dispatch_pending) {
    size_t avail = c->in.size() - c->in_head;
    if (avail == 0) break;
    ReactorContext ctx(this, c->id);
    size_t consumed = c->protocol->OnData(c->in.data() + c->in_head, avail,
                                          &ctx);
    if (consumed > avail) consumed = avail;
    c->in_head += consumed;
    if (ctx.close_) {
      protocol_errors_->Add();
      CloseConn(c, CloseReason::kProtocol);
      return false;
    }
    if (consumed == 0 && !ctx.dispatched_) break;  // needs more bytes
    if (c->in_head == c->in.size()) break;  // fully consumed; dispatch runs
  }
  // Compact the parsed prefix so long-lived keep-alive connections do
  // not grow without bound.
  if (c->in_head == c->in.size()) {
    c->in.clear();
    c->in_head = 0;
  } else if (c->in_head > (1u << 20)) {
    c->in.erase(c->in.begin(),
                c->in.begin() + static_cast<long>(c->in_head));
    c->in_head = 0;
  }
  // An unconsumed tail is a request still being assembled — unless a
  // dispatch is pending, in which case parsing is merely paused.
  size_t pending = c->in.size() - c->in_head;
  if (pending == 0) {
    c->request_start = 0;
  } else if (c->request_start == 0 && !c->dispatch_pending) {
    c->request_start = SteadyNowUs();
  }
  return true;
}

void Reactor::QueueWrite(Conn* c, std::vector<uint8_t> bytes) {
  if (bytes.empty()) return;
  c->out_bytes += bytes.size();
  c->out.push_back(std::move(bytes));
}

bool Reactor::FlushConn(Conn* c) {
  while (!c->out.empty()) {
    const std::vector<uint8_t>& front = c->out.front();
    ssize_t w = ::send(c->fd, front.data() + c->out_head,
                       front.size() - c->out_head,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!c->want_write) {
          c->want_write = true;
          UpdateInterest(c);
        }
        if (c->write_stall_start == 0) c->write_stall_start = SteadyNowUs();
        break;
      }
      CloseConn(c, CloseReason::kError);
      return false;
    }
    c->out_head += static_cast<size_t>(w);
    c->out_bytes -= static_cast<size_t>(w);
    c->last_activity = SteadyNowUs();
    if (c->out_head == front.size()) {
      c->out.pop_front();
      c->out_head = 0;
    }
  }
  if (c->out.empty()) {
    c->write_stall_start = 0;
    bool interest_changed = false;
    if (c->want_write) {
      c->want_write = false;
      interest_changed = true;
    }
    if (c->close_after_flush) {
      CloseConn(c, CloseReason::kNormal);
      return false;
    }
    if (c->paused) {
      // Resume reading: EPOLL_CTL_MOD re-arms edge-triggered readiness,
      // so bytes that arrived while paused trigger a fresh event.
      c->paused = false;
      interest_changed = true;
    }
    if (interest_changed) UpdateInterest(c);
  } else if (!c->paused && c->out_bytes > options_.write_high_watermark) {
    c->paused = true;
    stalls_->Add();
    UpdateInterest(c);
  }
  return true;
}

bool Reactor::MaybeCloseOnEof(Conn* c) {
  if (c->peer_eof && !c->dispatch_pending && c->out_bytes == 0) {
    // Peer finished sending and nothing is owed: a trailing partial
    // request (if any) can never complete, so drop the connection.
    CloseConn(c, CloseReason::kNormal);
    return false;
  }
  return true;
}

void Reactor::UpdateInterest(Conn* c) {
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLET | (c->paused ? 0u : (EPOLLIN | EPOLLRDHUP)) |
              (c->want_write ? EPOLLOUT : 0u);
  ev.data.u64 = c->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev);
}

void Reactor::SweepDeadlines(Micros now) {
  // Amortized reaper: each tick inspects a bounded chunk, resuming where
  // the previous tick stopped. A full O(conns) scan on the loop thread
  // stalls event handling, and with 10k+ connections that pause lands
  // straight on the p99 of whatever calls are in flight (perf_c10k
  // measures exactly this). The chunk floor covers small fleets in one
  // tick; above 512*20 connections the size/20 term caps a full cycle at
  // 20 ticks (~1s of detection lag on top of the configured timeout).
  size_t budget = std::max<size_t>(512, (conns_.size() + 19) / 20);
  std::vector<uint64_t> doomed;
  auto it = conns_.upper_bound(sweep_cursor_);
  for (; budget > 0; --budget) {
    if (it == conns_.end()) {
      sweep_cursor_ = 0;  // wrapped; next tick starts a fresh cycle
      break;
    }
    const uint64_t id = it->first;
    const Conn* c = it->second.get();
    sweep_cursor_ = id;
    ++it;
    // A connection waiting on its own handler is busy, not idle.
    bool quiescent = !c->dispatch_pending && c->out_bytes == 0;
    if (options_.idle_timeout > 0 && quiescent &&
        now - c->last_activity > options_.idle_timeout) {
      doomed.push_back(id);
      continue;
    }
    if (options_.read_timeout > 0 && c->request_start != 0 &&
        !c->dispatch_pending &&
        now - c->request_start > options_.read_timeout) {
      doomed.push_back(id);
      continue;
    }
    if (options_.write_timeout > 0 && c->write_stall_start != 0 &&
        now - c->write_stall_start > options_.write_timeout) {
      doomed.push_back(id);
    }
  }
  for (uint64_t id : doomed) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    timeouts_->Add();
    CloseConn(it->second.get(), CloseReason::kTimeout);
  }
}

void Reactor::CloseConn(Conn* c, CloseReason reason) {
  (void)reason;  // reason-specific counters are bumped by the caller
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
  ::close(c->fd);
  conns_open_->Add(-1);
  conns_.erase(c->id);  // frees c
}

}  // namespace hedc::net
