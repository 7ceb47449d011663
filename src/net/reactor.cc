#include "net/reactor.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <thread>

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

// Registers (EPOLL_CTL_ADD) or updates (EPOLL_CTL_MOD) `fd` with `tag`.
bool EpollCtl(int epoll_fd, int op, int fd, uint32_t events, uint64_t tag) {
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.u64 = tag;
  return ::epoll_ctl(epoll_fd, op, fd, &ev) == 0;
}

}  // namespace

Reactor::Options Reactor::Options::FromConfig(const Config& config) {
  Options options;
  options.loops = static_cast<int>(config.GetInt("net.loops", options.loops));
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

struct Reactor::ListenerState {
  int id = -1;
  int fd = -1;  // accepting-loop-only once registered
  ProtocolFactory factory;
  // Set before CloseListener posts its close to the loops, so a loop that
  // sees it after a handler returns drops that handler's reply.
  std::atomic<bool> closed{false};
};

// All fields belong to the owning loop's thread.
struct Reactor::Conn {
  uint64_t id = 0;
  int fd = -1;
  std::shared_ptr<ListenerState> listener;
  std::unique_ptr<ReactorProtocol> protocol;

  std::vector<uint8_t> in;  // received, not yet consumed (from in_head)
  size_t in_head = 0;

  std::deque<std::vector<uint8_t>> out;
  size_t out_head = 0;   // sent prefix of out.front()
  size_t out_bytes = 0;  // total queued

  bool want_write = false;  // EPOLLOUT armed
  bool paused = false;      // reading and parsing stopped (backpressure)
  bool close_after_flush = false;
  bool peer_eof = false;

  Micros last_activity = 0;
  Micros request_start = 0;      // first byte of an incomplete request
  Micros write_stall_start = 0;  // writes blocked since (0 = none)
};

// One event loop: an epoll set, a wake eventfd, a task queue other
// threads post into, and the connections assigned to it. Everything below
// the task queue is touched by the loop's thread only.
class Reactor::Loop {
 public:
  Loop(Reactor* reactor, bool acceptor)
      : r_(reactor), acceptor_(acceptor) {}
  // Stops and joins the thread (if any), then closes the fds.
  ~Loop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) {
      Wake();
      thread_.join();
    }
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }
  Loop(const Loop&) = delete;
  Loop& operator=(const Loop&) = delete;

  Status Open() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return Errno("epoll_create1");
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) return Errno("eventfd");
    if (!EpollCtl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, EPOLLIN, kWakeTag)) {
      return Errno("epoll_ctl(eventfd)");
    }
    accepting_tasks_ = true;
    thread_ = std::thread([this] { Main(); });
    return Status::Ok();
  }

  // Enqueues `fn` onto the loop thread; false once the loop is gone.
  bool Post(std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lock(task_mu_);
      if (!accepting_tasks_) return false;
      tasks_.push_back(Task{SteadyNowUs(), std::move(fn)});
    }
    Wake();
    return true;
  }

  int epoll_fd() const { return epoll_fd_; }

  // Loop thread: takes over an accepted fd (already counted in open_).
  void Adopt(int fd, std::shared_ptr<ListenerState> listener) {
    if (listener->closed.load(std::memory_order_acquire)) {
      ::close(fd);
      open_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    auto conn = std::make_unique<Conn>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conn->protocol = listener->factory();
    conn->listener = std::move(listener);
    conn->last_activity = SteadyNowUs();
    // Bytes that arrived before the fd joined this epoll set still raise
    // one edge: EPOLL_CTL_ADD reports a socket that is already readable.
    if (!EpollCtl(epoll_fd_, EPOLL_CTL_ADD, fd,
                  EPOLLIN | EPOLLRDHUP | EPOLLET, conn->id)) {
      ::close(fd);
      open_.fetch_sub(1, std::memory_order_relaxed);
      r_->accept_errors_->Add();
      return;
    }
    r_->accepts_->Add();
    r_->conns_open_->Add(1);
    conns_[conn->id] = std::move(conn);
  }

  // Loop thread: closes the listener's fd (acceptor) and connections.
  void DropListener(const ListenerState& listener) {
    if (acceptor_) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener.fd, nullptr);
      ::close(listener.fd);
    }
    std::vector<Conn*> doomed;
    for (const auto& [conn_id, conn] : conns_) {
      if (conn->listener.get() == &listener) doomed.push_back(conn.get());
    }
    for (Conn* c : doomed) CloseConn(c);
  }

  int64_t open_conns() const { return open_.load(std::memory_order_relaxed); }
  void CountAssigned() { open_.fetch_add(1, std::memory_order_relaxed); }

 private:
  struct Task {
    Micros enqueued_us = 0;
    std::function<void()> fn;
  };

  void Main();
  void RunPostedTasks();
  void Wake() {
    uint64_t one = 1;
    ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
    (void)ignored;
  }

  void AcceptReady(int listener_id);
  // The Conn helpers return false when they closed (and freed) the
  // connection, so callers stop touching it.
  bool ReadConn(Conn* c);
  bool ParseConn(Conn* c);
  bool FlushConn(Conn* c);
  bool MaybeCloseOnEof(Conn* c);
  void CloseConn(Conn* c);
  void UpdateInterest(Conn* c);
  void SweepDeadlines(Micros now);

  Reactor* const r_;
  const bool acceptor_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  // Connections assigned to this loop, counted from the acceptor's pick
  // until CloseConn; read by the acceptor to balance.
  std::atomic<int64_t> open_{0};

  std::mutex task_mu_;
  bool accepting_tasks_ = false;
  std::vector<Task> tasks_;

  // --- loop-thread-only state ------------------------------------------
  uint64_t next_conn_id_ = 1;
  std::map<uint64_t, std::unique_ptr<Conn>> conns_;
  Micros last_sweep_us_ = 0;
  uint64_t sweep_cursor_ = 0;  // deadline sweep resumes at upper_bound(this)

  std::thread thread_;  // last: runs Main() over every member above
};

Reactor::Reactor() : Reactor(Options()) {}

Reactor::Reactor(Options options) : options_(options) {
  if (options_.loops <= 0) {
    options_.loops =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
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
  for (int i = 0; i <= options_.loops; ++i) {
    loops_.push_back(std::make_unique<Loop>(this, /*acceptor=*/i == 0));
    Status s = loops_.back()->Open();
    if (!s.ok()) {
      loops_.clear();
      return s;
    }
  }
  next_loop_ = 0;
  running_ = true;
  return Status::Ok();
}

void Reactor::Stop() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (!running_) return;
    running_ = false;
  }
  // Close every listener first, while the loops are still alive to run
  // the closes.
  std::vector<int> ids;
  {
    std::lock_guard<std::mutex> lock(listeners_mu_);
    for (const auto& [id, state] : listeners_) ids.push_back(id);
  }
  for (int id : ids) CloseListener(id);
  // With no listener left, the acceptor posts to no loop; each loop's
  // destructor joins its thread.
  loops_.clear();
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
  auto fail = [fd](const std::string& what) {
    Status s = Errno(what);
    ::close(fd);
    return s;
  };
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), len) != 0) {
    return fail("bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd, options_.listen_backlog) != 0) return fail("listen");
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) !=
      0) {
    return fail("getsockname");
  }

  auto state = std::make_shared<ListenerState>();
  state->fd = fd;
  state->factory = std::move(factory);
  // Held across the registration: an accept event for the new listener
  // waits here until the acceptor can find it.
  std::lock_guard<std::mutex> lock(listeners_mu_);
  state->id = next_listener_id_++;
  // Level-triggered accept: no drain races.
  if (!EpollCtl(loops_.front()->epoll_fd(), EPOLL_CTL_ADD, fd, EPOLLIN,
                kListenerTag | static_cast<uint64_t>(state->id))) {
    return fail("epoll_ctl(listener)");
  }
  listeners_[state->id] = state;
  return ListenerInfo{state->id, ntohs(addr.sin_port)};
}

void Reactor::CloseListener(int id) {
  std::shared_ptr<ListenerState> state;
  {
    std::lock_guard<std::mutex> lock(listeners_mu_);
    auto it = listeners_.find(id);
    if (it == listeners_.end() || it->second->closed.load()) return;
    state = it->second;
    state->closed.store(true, std::memory_order_release);
  }
  // Post the close to every loop and wait for all of them. Each loop runs
  // one handler at a time, so once a loop has run the close, no handler
  // of the listener is still running there.
  std::mutex mu;
  std::condition_variable cv;
  size_t left = loops_.size();
  for (auto& loop : loops_) {
    Loop* l = loop.get();
    bool posted = l->Post([l, &state, &mu, &cv, &left] {
      l->DropListener(*state);
      std::lock_guard<std::mutex> lock(mu);
      if (--left == 0) cv.notify_all();
    });
    if (!posted) {
      std::lock_guard<std::mutex> lock(mu);
      --left;
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&left] { return left == 0; });
  }
  std::lock_guard<std::mutex> lock(listeners_mu_);
  listeners_.erase(id);
}

Reactor::Loop* Reactor::PickLoop() {
  // loops_[0] is the acceptor; serving loop i is loops_[1 + i]. The scan
  // starts at the round-robin cursor, so ties go to the next loop in turn.
  const size_t n = loops_.size() - 1;
  size_t best = next_loop_ % n;
  int64_t best_open = loops_[1 + best]->open_conns();
  for (size_t k = 1; k < n; ++k) {
    size_t i = (next_loop_ + k) % n;
    int64_t open = loops_[1 + i]->open_conns();
    if (open < best_open) {
      best = i;
      best_open = open;
    }
  }
  next_loop_ = best + 1;
  loops_[1 + best]->CountAssigned();
  return loops_[1 + best].get();
}

void Reactor::Loop::RunPostedTasks() {
  std::vector<Task> batch;
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    batch.swap(tasks_);
  }
  Micros now = SteadyNowUs();
  for (Task& task : batch) {
    r_->loop_lag_->Observe(now - task.enqueued_us);
    task.fn();
  }
}

void Reactor::Loop::Main() {
  std::vector<struct epoll_event> events(256);
  while (true) {
    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), kSweepMs);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    RunPostedTasks();
    if (stop_.load(std::memory_order_acquire)) break;
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
        // A drained buffer resumes parsing of requests already buffered:
        // no new EPOLLIN arrives for them.
        if (!FlushConn(c) || !ParseConn(c)) continue;
      }
      if ((ev & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0) {
        if (!ReadConn(c) || !ParseConn(c)) continue;
      }
      MaybeCloseOnEof(c);
    }
    Micros now = SteadyNowUs();
    if (now - last_sweep_us_ >= kSweepMs * kMicrosPerMilli) {
      last_sweep_us_ = now;
      SweepDeadlines(now);
    }
  }
  // Teardown: run what was posted before the queue shut (an accepted fd
  // in flight to this loop is closed by Adopt), then drop whatever
  // connections remain, on the owning thread.
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    accepting_tasks_ = false;
  }
  RunPostedTasks();
  while (!conns_.empty()) CloseConn(conns_.begin()->second.get());
}

void Reactor::Loop::AcceptReady(int listener_id) {
  std::shared_ptr<ListenerState> listener;
  {
    std::lock_guard<std::mutex> lock(r_->listeners_mu_);
    auto it = r_->listeners_.find(listener_id);
    if (it == r_->listeners_.end() || it->second->closed.load()) return;
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
      r_->accept_errors_->Add();
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Loop* target = r_->PickLoop();
    if (!target->Post([target, fd, listener] {
          target->Adopt(fd, listener);
        })) {
      ::close(fd);
      target->open_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

bool Reactor::Loop::ReadConn(Conn* c) {
  if (c->paused) return true;  // backpressure: interest is off, skip
  uint8_t buf[16384];
  while (true) {
    ssize_t r = ::recv(c->fd, buf, sizeof(buf), 0);
    if (r > 0) {
      if (c->in.size() - c->in_head + static_cast<size_t>(r) >
          r_->options_.max_in_buffer) {
        CloseConn(c);
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
    CloseConn(c);  // ECONNRESET and friends
    return false;
  }
}

bool Reactor::Loop::ParseConn(Conn* c) {
  // Every parsed request runs its handler and queues a reply, so parsing
  // stops while the peer is not draining replies (paused) — otherwise a
  // pipelined burst would queue replies without bound — and once a reply
  // has asked for the connection to close.
  bool progressed = false;
  while (!c->paused && !c->close_after_flush) {
    size_t avail = c->in.size() - c->in_head;
    if (avail == 0) break;
    ReactorContext ctx;
    size_t consumed = c->protocol->OnData(c->in.data() + c->in_head, avail,
                                          &ctx);
    if (consumed > avail) consumed = avail;
    c->in_head += consumed;
    progressed |= consumed > 0;
    if (ctx.close_) {
      r_->protocol_errors_->Add();
      CloseConn(c);
      return false;
    }
    if (!ctx.replied_) {
      if (consumed == 0) break;  // needs more bytes
      continue;
    }
    r_->requests_->Add();
    if (c->listener->closed.load(std::memory_order_acquire)) {
      // CloseListener ran while the handler did: the call was killed
      // mid-flight, so its reply must not reach the peer.
      CloseConn(c);
      return false;
    }
    if (ctx.reply_.close_after) c->close_after_flush = true;
    if (!ctx.reply_.bytes.empty()) {
      c->out_bytes += ctx.reply_.bytes.size();
      c->out.push_back(std::move(ctx.reply_.bytes));
    }
    if (!FlushConn(c)) return false;
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
  // An unconsumed tail is a request still being assembled — unless
  // parsing is stopped, in which case the write deadline governs.
  if (c->in.empty() || c->paused || c->close_after_flush) {
    c->request_start = 0;
  } else if (progressed || c->request_start == 0) {
    c->request_start = SteadyNowUs();
  }
  return true;
}

bool Reactor::Loop::FlushConn(Conn* c) {
  while (!c->out.empty()) {
    const std::vector<uint8_t>& front = c->out.front();
    ssize_t w = ::send(c->fd, front.data() + c->out_head,
                       front.size() - c->out_head, MSG_NOSIGNAL);
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
      CloseConn(c);
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
      CloseConn(c);
      return false;
    }
    if (c->paused) {
      // Resume reading: EPOLL_CTL_MOD re-arms edge-triggered readiness,
      // so bytes that arrived while paused trigger a fresh event.
      c->paused = false;
      interest_changed = true;
    }
    if (interest_changed) UpdateInterest(c);
  } else if (!c->paused && c->out_bytes > r_->options_.write_high_watermark) {
    c->paused = true;
    r_->stalls_->Add();
    UpdateInterest(c);
  }
  return true;
}

bool Reactor::Loop::MaybeCloseOnEof(Conn* c) {
  if (c->peer_eof && c->out_bytes == 0) {
    // Peer finished sending and nothing is owed: a trailing partial
    // request (if any) can never complete, so drop the connection.
    CloseConn(c);
    return false;
  }
  return true;
}

void Reactor::Loop::UpdateInterest(Conn* c) {
  EpollCtl(epoll_fd_, EPOLL_CTL_MOD, c->fd,
           EPOLLET | (c->paused ? 0u : (EPOLLIN | EPOLLRDHUP)) |
               (c->want_write ? EPOLLOUT : 0u),
           c->id);
}

void Reactor::Loop::SweepDeadlines(Micros now) {
  // Amortized reaper: each tick inspects a bounded chunk, resuming where
  // the previous tick stopped. A full O(conns) scan on the loop thread
  // stalls event handling, and with 10k+ connections that pause lands
  // straight on the p99 of whatever calls are in flight (perf_c10k
  // measures exactly this). The chunk floor covers small fleets in one
  // tick; above 512*20 connections the size/20 term caps a full cycle at
  // 20 ticks (~1s of detection lag on top of the configured timeout).
  const Options& options = r_->options_;
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
    if (options.idle_timeout > 0 && c->out_bytes == 0 &&
        now - c->last_activity > options.idle_timeout) {
      doomed.push_back(id);
      continue;
    }
    if (options.read_timeout > 0 && c->request_start != 0 &&
        now - c->request_start > options.read_timeout) {
      doomed.push_back(id);
      continue;
    }
    if (options.write_timeout > 0 && c->write_stall_start != 0 &&
        now - c->write_stall_start > options.write_timeout) {
      doomed.push_back(id);
    }
  }
  for (uint64_t id : doomed) {
    auto found = conns_.find(id);
    if (found == conns_.end()) continue;
    r_->timeouts_->Add();
    CloseConn(found->second.get());
  }
}

void Reactor::Loop::CloseConn(Conn* c) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
  ::close(c->fd);
  r_->conns_open_->Add(-1);
  open_.fetch_sub(1, std::memory_order_relaxed);
  conns_.erase(c->id);  // frees c
}

}  // namespace hedc::net
