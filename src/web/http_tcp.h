// Socket-level HTTP/1.1 front end for the presentation tier (§6.1).
//
// web/http.h deliberately models requests as in-process structures; this
// module puts them on real loopback sockets so browsers' dominant access
// pattern — many keep-alive connections, mostly idle — is exercised for
// real. HttpTcpServer wraps any handler (typically WebServer::Dispatch)
// and, like dm::TcpRmiServer, serves on an epoll reactor (net/reactor.h):
// a per-connection incremental HTTP parser and the handler both run on
// the reactor thread serving the connection. The wire encoding is pinned by golden byte
// transcripts in tests/net_conformance_test.cc.
#ifndef HEDC_WEB_HTTP_TCP_H_
#define HEDC_WEB_HTTP_TCP_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/metrics.h"
#include "net/reactor.h"
#include "web/http.h"
#include "web/tcp.h"

namespace hedc::web {

// Serves HTTP over loopback TCP. Handler-based rather than bound to
// WebServer so tests can serve canned responses; wire it to a WebServer
// with [&server](const HttpRequest& r) { return server.Dispatch(r); }.
class HttpTcpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  struct Options {
    net::Reactor::Options reactor;       // used when owning the reactor
    net::Reactor* shared_reactor = nullptr;  // not owned
    size_t max_header_bytes = 64u << 10;
    size_t max_body_bytes = 8u << 20;

    // The net.* reactor knobs (see net::Reactor::Options::FromConfig).
    static Options FromConfig(const Config& config);
  };

  explicit HttpTcpServer(Handler handler, MetricsRegistry* metrics = nullptr)
      : HttpTcpServer(std::move(handler), metrics, Options()) {}
  HttpTcpServer(Handler handler, MetricsRegistry* metrics, Options options);
  ~HttpTcpServer();
  HttpTcpServer(const HttpTcpServer&) = delete;
  HttpTcpServer& operator=(const HttpTcpServer&) = delete;

  Status Start(int port = 0);
  int port() const;
  bool running() const;
  void Stop();

 private:
  net::Reactor* reactor();

  Handler handler_;
  MetricsRegistry* metrics_;
  Options options_;
  std::unique_ptr<net::Reactor> own_reactor_;

  mutable std::mutex mu_;
  bool running_ = false;
  net::Reactor::ListenerInfo listener_;
};

}  // namespace hedc::web

#endif  // HEDC_WEB_HTTP_TCP_H_
