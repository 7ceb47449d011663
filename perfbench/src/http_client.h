// Keep-alive HTTP/1.1 client for the end-to-end benchmark: one blocking
// loopback connection per generator thread, and an incremental response
// reader for the wire format web::SerializeHttpResponse produces.
#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <cstddef>
#include <map>
#include <string>

#include "core/status.h"
#include "web/tcp.h"

namespace perfbench {

struct HttpReply {
  int status = 0;
  std::string content_type;
  std::map<std::string, std::string> set_cookies;
  bool keep_alive = true;
  std::string body;
};

enum class ReadResult { kNeedMore, kOk, kBad };

// Parses one response from the front of `data`. kOk fills `out` and sets
// `consumed` to the response length (head + Content-Length body);
// kNeedMore leaves both untouched. A response without Content-Length, a
// malformed status line or header is kBad.
ReadResult ParseHttpResponse(const char* data, size_t n, HttpReply* out,
                             size_t* consumed);

class HttpClient {
 public:
  hedc::Status Connect(int port);
  // Sends "GET <target>" with the given Cookie header value (empty = no
  // header) and reads the response.
  hedc::Result<HttpReply> Get(const std::string& target,
                              const std::string& cookies);
  void Close() { socket_.Close(); }

 private:
  hedc::net::TcpSocket socket_;
  std::string buffer_;  // received, not yet consumed
};

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
