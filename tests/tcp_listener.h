// A blocking listening socket on 127.0.0.1, for test doubles that play a
// misbehaving peer of dm::TcpChannel (a server that never answers, one
// that answers garbage, a port that refuses). The servers of the stack
// serve on the epoll reactor (net/reactor.h) and do not use it. Close()
// from another thread unblocks a pending Accept(), which then reports
// kUnavailable.
#ifndef HEDC_TESTS_TCP_LISTENER_H_
#define HEDC_TESTS_TCP_LISTENER_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <string>

#include "core/status.h"
#include "web/tcp.h"

namespace hedc::net {

class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener() {
    Close();
    if (fd_ >= 0) ::close(fd_);
  }
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  // Binds and listens; port 0 picks an ephemeral port (see port()).
  Status Listen(int port = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return Errno("socket");
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::bind(fd_, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return Errno("bind 127.0.0.1:" + std::to_string(port));
    }
    if (::listen(fd_, 64) != 0) return Errno("listen");
    socklen_t len = sizeof(addr);
    if (::getsockname(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                      &len) != 0) {
      return Errno("getsockname");
    }
    port_ = ntohs(addr.sin_port);
    return Status::Ok();
  }

  int port() const { return port_; }

  Result<TcpSocket> Accept() {
    while (true) {
      if (closed_.load(std::memory_order_acquire)) {
        return Status::Unavailable("listener closed");
      }
      int fd = ::accept(fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        if (closed_.load(std::memory_order_acquire)) {
          return Status::Unavailable("listener closed");
        }
        return Errno("accept");
      }
      if (closed_.load(std::memory_order_acquire)) {
        ::close(fd);
        return Status::Unavailable("listener closed");
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return TcpSocket(fd);
    }
  }

  // Shuts the socket down; the fd itself is closed in the destructor,
  // after any accept thread has seen the shutdown, so that a concurrent
  // accept() cannot race the fd's reuse.
  void Close() {
    if (fd_ >= 0 && !closed_.exchange(true, std::memory_order_acq_rel)) {
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

 private:
  static Status Errno(const std::string& what) {
    return Status::Unavailable(what + ": " + std::strerror(errno));
  }

  int fd_ = -1;
  int port_ = 0;
  std::atomic<bool> closed_{false};
};

}  // namespace hedc::net

#endif  // HEDC_TESTS_TCP_LISTENER_H_
