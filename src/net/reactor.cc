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
#include <cstring>
#include <deque>

namespace hedc::net {

namespace {

// epoll user-data encoding: the stop eventfd, listeners (tagged ids) and
// connections (plain ids; next_conn_id_ never reaches the tag bit).
constexpr uint64_t kStopTag = ~uint64_t{0};
constexpr uint64_t kListenerTag = uint64_t{1} << 63;

// Sweep cadence for the deadline reaper; also the epoll_wait timeout, so
// an idle thread wakes ~20x/s.
constexpr int kSweepMs = 50;

// Per-connection cap on buffered unparsed input; protects against floods
// that never form a parseable request.
constexpr size_t kMaxInBuffer = 64u << 20;

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
  int fd = -1;  // closed by CloseListener once no thread accepts on it
  ProtocolFactory factory;
  // Set under mu_ by CloseListener; read without it after a handler
  // returns, to drop that handler's reply.
  std::atomic<bool> closed{false};
  // Under mu_: this listener's busy connections plus threads accepting on
  // it. CloseListener waits for 0.
  int busy = 0;
};

// Owned by the thread serving it while `busy`; otherwise by mu_.
struct Reactor::Conn {
  uint64_t id = 0;
  int fd = -1;
  std::shared_ptr<ListenerState> listener;
  std::unique_ptr<ReactorProtocol> protocol;
  bool busy = false;  // under mu_: a thread is serving this connection

  std::vector<uint8_t> in;  // received, not yet consumed (from in_head)
  size_t in_head = 0;

  std::deque<std::vector<uint8_t>> out;
  size_t out_head = 0;   // sent prefix of out.front()
  size_t out_bytes = 0;  // total queued

  bool want_write = false;  // EPOLLOUT wanted at the next re-arm
  bool paused = false;      // reading and parsing stopped (backpressure)
  bool close_after_flush = false;
  bool peer_eof = false;

  Micros last_activity = 0;
  Micros request_start = 0;      // first byte of an incomplete request
  Micros write_stall_start = 0;  // writes blocked since (0 = none)
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
  auto fail = [this](const std::string& what) {
    Status s = Errno(what);
    if (stop_fd_ >= 0) ::close(stop_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    stop_fd_ = epoll_fd_ = -1;
    return s;
  };
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return fail("epoll_create1");
  stop_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (stop_fd_ < 0) return fail("eventfd");
  // Level-triggered and never drained: once written, every thread's next
  // wait returns it.
  if (!EpollCtl(epoll_fd_, EPOLL_CTL_ADD, stop_fd_, EPOLLIN, kStopTag)) {
    return fail("epoll_ctl(eventfd)");
  }
  for (int i = 0; i < options_.loops; ++i) {
    threads_.emplace_back([this] { ThreadMain(); });
  }
  running_ = true;
  return Status::Ok();
}

void Reactor::Stop() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (!running_) return;
    running_ = false;
  }
  std::vector<int> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, state] : listeners_) ids.push_back(id);
  }
  for (int id : ids) CloseListener(id);
  uint64_t one = 1;
  ssize_t ignored = ::write(stop_fd_, &one, sizeof(one));
  (void)ignored;
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  std::vector<std::unique_ptr<Conn>> rest;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, conn] : conns_) rest.push_back(std::move(conn));
    conns_.clear();
  }
  for (auto& conn : rest) CloseConn(std::move(conn));
  ::close(stop_fd_);
  ::close(epoll_fd_);
  stop_fd_ = epoll_fd_ = -1;
}

Result<Reactor::ListenerInfo> Reactor::AddListener(int port,
                                                   ProtocolFactory factory) {
  int epoll_fd = -1;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (!running_) return Status::FailedPrecondition("reactor not running");
    epoll_fd = epoll_fd_;
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
  // waits here until the listener can be found.
  std::lock_guard<std::mutex> lock(mu_);
  state->id = next_listener_id_++;
  // Level-triggered, so every idle thread may accept; the losers of the
  // race get EAGAIN.
  if (!EpollCtl(epoll_fd, EPOLL_CTL_ADD, fd, EPOLLIN,
                kListenerTag | static_cast<uint64_t>(state->id))) {
    return fail("epoll_ctl(listener)");
  }
  listeners_[state->id] = state;
  return ListenerInfo{state->id, ntohs(addr.sin_port)};
}

void Reactor::CloseListener(int id) {
  std::shared_ptr<ListenerState> state;
  std::vector<std::unique_ptr<Conn>> idle;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = listeners_.find(id);
    if (it == listeners_.end() || it->second->closed.load()) return;
    state = it->second;
    state->closed.store(true, std::memory_order_release);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, state->fd, nullptr);
    // Idle connections close now. A busy one closes itself when its
    // thread hands it back, dropping the reply of a handler that was
    // running; no thread takes a connection of a closed listener after
    // this, since none is left idle and accepts see `closed`.
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->second->listener == state && !it->second->busy) {
        idle.push_back(std::move(it->second));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    idle_cv_.wait(lock, [&state] { return state->busy == 0; });
    listeners_.erase(id);
  }
  for (auto& conn : idle) CloseConn(std::move(conn));
  ::close(state->fd);
}

void Reactor::ThreadMain() {
  while (true) {
    // One event per wait: an event this thread cannot serve at once stays
    // in the shared set for the next idle thread.
    struct epoll_event event;
    int n = ::epoll_wait(epoll_fd_, &event, 1, kSweepMs);
    if (n < 0 && errno != EINTR) break;
    if (n == 1) {
      uint64_t tag = event.data.u64;
      if (tag == kStopTag) break;
      if ((tag & kListenerTag) != 0) {
        AcceptReady(static_cast<int>(tag & ~kListenerTag));
      } else {
        Serve(tag, event.events);
      }
    }
    MaybeSweep();
  }
}

void Reactor::AcceptReady(int listener_id) {
  std::shared_ptr<ListenerState> listener;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = listeners_.find(listener_id);
    if (it == listeners_.end() || it->second->closed.load()) return;
    listener = it->second;
    ++listener->busy;  // keeps listener->fd open while this thread accepts
  }
  while (true) {
    int fd = ::accept4(listener->fd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EMFILE/ENFILE and transient network errors: count and let the
      // backlog hold the rest; the level-triggered listener retries.
      if (errno != EAGAIN && errno != EWOULDBLOCK) accept_errors_->Add();
      break;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->protocol = listener->factory();
    conn->listener = listener;
    conn->last_activity = SteadyNowUs();
    std::lock_guard<std::mutex> lock(mu_);
    if (listener->closed.load()) {
      ::close(fd);
      break;
    }
    conn->id = next_conn_id_++;
    // Bytes that arrived before the fd joined the set are reported:
    // EPOLL_CTL_ADD checks a socket that is already readable.
    if (!EpollCtl(epoll_fd_, EPOLL_CTL_ADD, fd,
                  EPOLLIN | EPOLLRDHUP | EPOLLET | EPOLLONESHOT, conn->id)) {
      ::close(fd);
      accept_errors_->Add();
      continue;
    }
    accepts_->Add();
    conns_open_->Add(1);
    conns_[conn->id] = std::move(conn);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (--listener->busy == 0 && listener->closed.load()) idle_cv_.notify_all();
}

void Reactor::Serve(uint64_t id, uint32_t events) {
  Conn* c = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = conns_.find(id);
    if (it == conns_.end()) return;  // closed since the event was queued
    c = it->second.get();
    c->busy = true;
    ++c->listener->busy;
  }
  bool open = true;
  // A drained buffer resumes parsing of requests already buffered: no new
  // EPOLLIN arrives for them. A hung-up or failed socket fails the send,
  // so a paused connection closes instead of re-reporting the hang-up at
  // every re-arm.
  if ((events & (EPOLLOUT | EPOLLHUP | EPOLLERR)) != 0) {
    open = FlushConn(c) && ParseConn(c);
  }
  if (open && (events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0) {
    open = ReadConn(c) && ParseConn(c);
  }
  // Peer finished sending and nothing is owed: a trailing partial request
  // (if any) can never complete, so drop the connection.
  if (open && c->peer_eof && c->out_bytes == 0) open = false;

  // The listener outlives this call: CloseListener keeps it until its
  // busy count, which c still holds here, drops to 0.
  ListenerState* listener = c->listener.get();
  std::unique_lock<std::mutex> lock(mu_);
  c->busy = false;
  // Re-armed under mu_: once c is not busy, a sweep or CloseListener may
  // close its fd. EPOLL_CTL_MOD re-checks readiness, so bytes that
  // arrived during service (or while paused) raise a fresh event.
  if (!open || listener->closed.load() ||
      !EpollCtl(epoll_fd_, EPOLL_CTL_MOD, c->fd,
                EPOLLET | EPOLLONESHOT |
                    (c->paused ? 0u : (EPOLLIN | EPOLLRDHUP)) |
                    (c->want_write ? EPOLLOUT : 0u),
                c->id)) {
    // Closed before the busy count drops, so CloseListener returns only
    // once every connection of its listener is closed.
    std::unique_ptr<Conn> doomed = std::move(conns_.extract(c->id).mapped());
    lock.unlock();
    CloseConn(std::move(doomed));
    lock.lock();
  }
  if (--listener->busy == 0 && listener->closed.load()) idle_cv_.notify_all();
}

bool Reactor::ReadConn(Conn* c) {
  if (c->paused) return true;  // backpressure: interest is off, skip
  uint8_t buf[16384];
  while (true) {
    ssize_t r = ::recv(c->fd, buf, sizeof(buf), 0);
    if (r > 0) {
      if (c->in.size() - c->in_head + static_cast<size_t>(r) > kMaxInBuffer) {
        return false;
      }
      c->in.insert(c->in.end(), buf, buf + r);
      c->last_activity = SteadyNowUs();
      // A short read drained the socket; anything arriving after it is
      // reported by the re-arm, so skip the recv that would say EAGAIN.
      if (static_cast<size_t>(r) < sizeof(buf)) return true;
      continue;
    }
    if (r == 0) {
      c->peer_eof = true;
      return true;
    }
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK;  // else ECONNRESET, ...
  }
}

bool Reactor::ParseConn(Conn* c) {
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
      protocol_errors_->Add();
      return false;
    }
    if (!ctx.replied_) {
      if (consumed == 0) break;  // needs more bytes
      continue;
    }
    requests_->Add();
    // CloseListener ran while the handler did: the call was killed
    // mid-flight, so its reply must not reach the peer.
    if (c->listener->closed.load(std::memory_order_acquire)) return false;
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

bool Reactor::FlushConn(Conn* c) {
  while (!c->out.empty()) {
    const std::vector<uint8_t>& front = c->out.front();
    ssize_t w = ::send(c->fd, front.data() + c->out_head,
                       front.size() - c->out_head, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
      c->want_write = true;
      if (c->write_stall_start == 0) c->write_stall_start = SteadyNowUs();
      break;
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
    c->want_write = false;
    if (c->close_after_flush) return false;
    c->paused = false;  // drained: resume reading at the re-arm
  } else if (!c->paused && c->out_bytes > options_.write_high_watermark) {
    c->paused = true;
    stalls_->Add();
  }
  return true;
}

void Reactor::MaybeSweep() {
  // Whichever thread finds the sweep due first claims this tick.
  Micros now = SteadyNowUs();
  Micros due = next_sweep_us_.load(std::memory_order_relaxed);
  if (now < due || !next_sweep_us_.compare_exchange_strong(
                       due, now + kSweepMs * kMicrosPerMilli)) {
    return;
  }
  // Amortized reaper: each tick inspects a bounded chunk, resuming where
  // the previous tick stopped. A full O(conns) scan stalls event handling
  // (it holds mu_), and with 10k+ connections that pause lands straight
  // on the p99 of whatever calls are in flight (perf_c10k measures exactly
  // this). The chunk floor covers small fleets in one tick; above 512*20
  // connections the size/20 term caps a full cycle at 20 ticks (~1s of
  // detection lag on top of the configured timeout). Busy connections are
  // skipped: their serving thread owns their deadlines.
  std::vector<std::unique_ptr<Conn>> doomed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t budget = std::max<size_t>(512, (conns_.size() + 19) / 20);
    auto it = conns_.upper_bound(sweep_cursor_);
    for (; budget > 0; --budget) {
      if (it == conns_.end()) {
        sweep_cursor_ = 0;  // wrapped; next tick starts a fresh cycle
        break;
      }
      const Conn& c = *it->second;
      sweep_cursor_ = it->first;
      if (!c.busy &&
          ((options_.idle_timeout > 0 && c.out_bytes == 0 &&
            now - c.last_activity > options_.idle_timeout) ||
           (options_.read_timeout > 0 && c.request_start != 0 &&
            now - c.request_start > options_.read_timeout) ||
           (options_.write_timeout > 0 && c.write_stall_start != 0 &&
            now - c.write_stall_start > options_.write_timeout))) {
        doomed.push_back(std::move(it->second));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : doomed) {
    timeouts_->Add();
    CloseConn(std::move(conn));
  }
}

void Reactor::CloseConn(std::unique_ptr<Conn> conn) {
  // Unlinked, so a stale event for this id finds nothing; the fd number
  // cannot be reused before this close.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_open_->Add(-1);
}

}  // namespace hedc::net
