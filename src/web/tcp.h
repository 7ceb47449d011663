// Loopback TCP plumbing: a connected socket and a CRC-checked
// length-delimited frame codec.
//
// The presentation tier speaks in-process structures (web/http.h); this
// module is the client side of the real socket layer the middle tier
// needs for networked call redirection (§5.4). It is deliberately small:
// blocking sockets, per-socket receive deadlines via SO_RCVTIMEO, and a
// frame format of [u32 length][payload][u32 crc32] so torn or garbled
// frames surface as kCorruption instead of desynchronizing the stream.
// The servers (web::HttpTcpServer, dm::TcpRmiServer) do not use these
// blocking calls: they serve on the epoll reactor (net/reactor.h), which
// shares only EncodeFrame; dm::TcpChannel is the client here. The stack
// listens only on 127.0.0.1 — the scale-out story only needs
// process-local sockets to make the transport (and its failure modes)
// real.
#ifndef HEDC_WEB_TCP_H_
#define HEDC_WEB_TCP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/clock.h"
#include "core/status.h"

namespace hedc::net {

// Move-only wrapper around a connected stream socket.
class TcpSocket {
 public:
  TcpSocket() = default;
  explicit TcpSocket(int fd) : fd_(fd) {}
  ~TcpSocket();
  TcpSocket(TcpSocket&& other) noexcept;
  TcpSocket& operator=(TcpSocket&& other) noexcept;
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Writes all `n` bytes; kUnavailable on a closed/reset peer.
  Status SendAll(const uint8_t* data, size_t n);
  // Reads exactly `n` bytes; kUnavailable on EOF/reset, kTimeout when the
  // receive deadline elapses first.
  Status RecvAll(uint8_t* data, size_t n);
  // Receive deadline for subsequent RecvAll calls. 0 = block forever.
  Status SetRecvTimeout(Micros timeout);

  // Shuts the socket down (unblocking any reader) and closes the fd.
  void Close();

 private:
  int fd_ = -1;
};

// Connects to host:port (kUnavailable on refusal).
Result<TcpSocket> TcpConnect(const std::string& host, int port);

// Frame codec: [u32 payload length][payload bytes][u32 crc32(payload)].
// RecvFrame reports kCorruption on a bad checksum or an oversized length
// field, and the transport-level codes of RecvAll otherwise.
Status SendFrame(TcpSocket& socket, const std::vector<uint8_t>& payload);
Result<std::vector<uint8_t>> RecvFrame(TcpSocket& socket,
                                       size_t max_len = 64u << 20);
// The same wire bytes as SendFrame, materialized for event-driven writers
// (the reactor queues whole frames instead of looping blocking sends).
std::vector<uint8_t> EncodeFrame(const std::vector<uint8_t>& payload);

}  // namespace hedc::net

#endif  // HEDC_WEB_TCP_H_
