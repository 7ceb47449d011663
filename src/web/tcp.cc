#include "web/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "core/crc32.h"

namespace hedc::net {

namespace {

Status Errno(const std::string& what) {
  return Status::Unavailable(what + ": " + std::strerror(errno));
}

void DisableSigpipeAndNagle(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
#ifdef SO_NOSIGPIPE
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#endif
}

}  // namespace

TcpSocket::~TcpSocket() { Close(); }

TcpSocket::TcpSocket(TcpSocket&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

TcpSocket& TcpSocket::operator=(TcpSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Status TcpSocket::SendAll(const uint8_t* data, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    ssize_t w = ::send(fd_, data + sent, n - sent,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (w < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(w);
  }
  return Status::Ok();
}

Status TcpSocket::RecvAll(uint8_t* data, size_t n) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd_, data + got, n - got, 0);
    if (r == 0) return Status::Unavailable("peer closed connection");
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::Timeout("receive deadline elapsed");
      }
      return Errno("recv");
    }
    got += static_cast<size_t>(r);
  }
  return Status::Ok();
}

Status TcpSocket::SetRecvTimeout(Micros timeout) {
  struct timeval tv;
  tv.tv_sec = timeout / kMicrosPerSecond;
  tv.tv_usec = timeout % kMicrosPerSecond;
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt(SO_RCVTIMEO)");
  }
  return Status::Ok();
}

void TcpSocket::Close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

Result<TcpSocket> TcpConnect(const std::string& host, int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address: " + host);
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    Status s = Errno("connect to " + host + ":" + std::to_string(port));
    ::close(fd);
    return s;
  }
  DisableSigpipeAndNagle(fd);
  return TcpSocket(fd);
}

Status SendFrame(TcpSocket& socket, const std::vector<uint8_t>& payload) {
  uint8_t header[4];
  uint32_t n = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) header[i] = static_cast<uint8_t>(n >> (8 * i));
  HEDC_RETURN_IF_ERROR(socket.SendAll(header, sizeof(header)));
  if (!payload.empty()) {
    HEDC_RETURN_IF_ERROR(socket.SendAll(payload.data(), payload.size()));
  }
  uint32_t crc = Crc32(payload);
  uint8_t trailer[4];
  for (int i = 0; i < 4; ++i) {
    trailer[i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  return socket.SendAll(trailer, sizeof(trailer));
}

std::vector<uint8_t> EncodeFrame(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame;
  frame.reserve(payload.size() + 8);
  uint32_t n = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<uint8_t>(n >> (8 * i)));
  }
  frame.insert(frame.end(), payload.begin(), payload.end());
  uint32_t crc = Crc32(payload);
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  return frame;
}

Result<std::vector<uint8_t>> RecvFrame(TcpSocket& socket, size_t max_len) {
  uint8_t header[4];
  HEDC_RETURN_IF_ERROR(socket.RecvAll(header, sizeof(header)));
  uint32_t n = 0;
  for (int i = 0; i < 4; ++i) n |= static_cast<uint32_t>(header[i]) << (8 * i);
  if (n > max_len) {
    return Status::Corruption("frame length " + std::to_string(n) +
                              " exceeds limit");
  }
  std::vector<uint8_t> payload(n);
  if (n > 0) HEDC_RETURN_IF_ERROR(socket.RecvAll(payload.data(), n));
  uint8_t trailer[4];
  HEDC_RETURN_IF_ERROR(socket.RecvAll(trailer, sizeof(trailer)));
  uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) {
    crc |= static_cast<uint32_t>(trailer[i]) << (8 * i);
  }
  if (crc != Crc32(payload)) {
    return Status::Corruption("frame checksum mismatch");
  }
  return payload;
}

}  // namespace hedc::net
