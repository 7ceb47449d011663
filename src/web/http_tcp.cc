#include "web/http_tcp.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <map>

namespace hedc::web {

namespace {

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

// "a=b; c=d" -> {a: b, c: d}
std::map<std::string, std::string> ParseCookieHeader(const std::string& v) {
  std::map<std::string, std::string> cookies;
  size_t pos = 0;
  while (pos < v.size()) {
    size_t semi = v.find(';', pos);
    if (semi == std::string::npos) semi = v.size();
    std::string pair = Trim(v.substr(pos, semi - pos));
    size_t eq = pair.find('=');
    if (eq != std::string::npos) {
      cookies[pair.substr(0, eq)] = pair.substr(eq + 1);
    }
    pos = semi + 1;
  }
  return cookies;
}

const char* StatusText(int code) {
  switch (code) {
    case 200: return "OK";
    case 302: return "Found";
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

// An HttpRequest parsed off the wire, plus connection disposition.
struct ParsedHttpRequest {
  HttpRequest request;
  bool keep_alive = true;
};

enum class HttpParseResult { kNeedMore, kOk, kBad };

// Incremental HTTP/1.1 request parser over buffered bytes. On kOk fills
// `out` and sets `consumed` to the total request length (headers + body).
// kNeedMore leaves both untouched; kBad means the connection should get a
// 400 and be dropped (malformed request line/headers, oversized header
// block or declared body).
HttpParseResult ParseHttpRequest(const uint8_t* data, size_t n,
                                 size_t max_header, size_t max_body,
                                 ParsedHttpRequest* out, size_t* consumed) {
  const char* p = reinterpret_cast<const char*>(data);
  // Find the header terminator without scanning unbounded garbage.
  size_t scan = std::min(n, max_header);
  size_t header_end = std::string::npos;
  for (size_t i = 0; i + 3 < scan; ++i) {
    if (p[i] == '\r' && p[i + 1] == '\n' && p[i + 2] == '\r' &&
        p[i + 3] == '\n') {
      header_end = i;
      break;
    }
  }
  if (header_end == std::string::npos) {
    // No terminator inside the permitted header window: anything already
    // past the cap can never become a valid request.
    return n >= max_header ? HttpParseResult::kBad : HttpParseResult::kNeedMore;
  }

  std::string head(p, header_end);
  size_t line_end = head.find("\r\n");
  std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  size_t sp1 = request_line.find(' ');
  size_t sp2 = request_line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) return HttpParseResult::kBad;
  std::string method = request_line.substr(0, sp1);
  std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string version = request_line.substr(sp2 + 1);
  if (method.empty() || target.empty() || target[0] != '/' ||
      version.rfind("HTTP/", 0) != 0) {
    return HttpParseResult::kBad;
  }

  std::map<std::string, std::string> headers;  // lowercased names
  size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    std::string line = head.substr(pos, eol - pos);
    size_t colon = line.find(':');
    if (colon == std::string::npos) return HttpParseResult::kBad;
    headers[ToLower(Trim(line.substr(0, colon)))] =
        Trim(line.substr(colon + 1));
    pos = eol + 2;
  }

  size_t body_len = 0;
  auto cl = headers.find("content-length");
  if (cl != headers.end()) {
    errno = 0;
    char* end = nullptr;
    unsigned long long v = std::strtoull(cl->second.c_str(), &end, 10);
    if (end == cl->second.c_str() || *end != '\0' || errno != 0) {
      return HttpParseResult::kBad;
    }
    if (v > max_body) return HttpParseResult::kBad;
    body_len = static_cast<size_t>(v);
  }
  size_t total = header_end + 4 + body_len;
  if (n < total) return HttpParseResult::kNeedMore;

  ParsedHttpRequest parsed;
  parsed.request.method = method;
  size_t q = target.find('?');
  parsed.request.path = target.substr(0, q);
  if (q != std::string::npos) {
    parsed.request.query = ParseQueryString(target.substr(q + 1));
  }
  auto cookie = headers.find("cookie");
  if (cookie != headers.end()) {
    parsed.request.cookies = ParseCookieHeader(cookie->second);
  }
  if (body_len > 0) {
    parsed.request.body.assign(p + header_end + 4, body_len);
  }
  // HTTP/1.1 defaults to keep-alive, 1.0 to close; Connection overrides.
  bool http11 = version == "HTTP/1.1";
  auto conn = headers.find("connection");
  if (conn != headers.end()) {
    std::string v = ToLower(conn->second);
    parsed.keep_alive = v != "close" && (http11 || v == "keep-alive");
  } else {
    parsed.keep_alive = http11;
  }
  *out = std::move(parsed);
  *consumed = total;
  return HttpParseResult::kOk;
}

// The wire encoding of a response: status line, Content-Type,
// Content-Length, Connection, Set-Cookie headers, then body + binary_body.
std::vector<uint8_t> SerializeHttpResponse(const HttpResponse& response,
                                           bool keep_alive) {
  std::string head;
  head.reserve(256);
  head += "HTTP/1.1 " + std::to_string(response.status_code) + " " +
          StatusText(response.status_code) + "\r\n";
  head += "Content-Type: " + response.content_type + "\r\n";
  head += "Content-Length: " + std::to_string(response.TotalBytes()) + "\r\n";
  head += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& [name, value] : response.set_cookies) {
    head += "Set-Cookie: " + name + "=" + value + "\r\n";
  }
  head += "\r\n";
  std::vector<uint8_t> bytes;
  bytes.reserve(head.size() + response.TotalBytes());
  bytes.insert(bytes.end(), head.begin(), head.end());
  bytes.insert(bytes.end(), response.body.begin(), response.body.end());
  bytes.insert(bytes.end(), response.binary_body.begin(),
               response.binary_body.end());
  return bytes;
}

// Per-connection state machine: buffer -> ParseHttpRequest -> handler,
// run inline on the reactor thread -> serialized reply (close_after on
// "Connection: close"); malformed input gets a 400 and the connection
// dropped.
class HttpProtocol : public net::ReactorProtocol {
 public:
  HttpProtocol(HttpTcpServer::Handler* handler, Counter* requests,
               Counter* bad_requests, size_t max_header, size_t max_body)
      : handler_(handler),
        requests_(requests),
        bad_requests_(bad_requests),
        max_header_(max_header),
        max_body_(max_body) {}

  size_t OnData(const uint8_t* data, size_t n,
                net::ReactorContext* ctx) override {
    ParsedHttpRequest parsed;
    size_t consumed = 0;
    switch (ParseHttpRequest(data, n, max_header_, max_body_, &parsed,
                             &consumed)) {
      case HttpParseResult::kNeedMore:
        return 0;
      case HttpParseResult::kBad:
        bad_requests_->Add();
        ctx->Reply({SerializeHttpResponse(
                        HttpResponse::BadRequest("malformed request"),
                        /*keep_alive=*/false),
                    /*close_after=*/true});
        return n;  // discard the garbage; connection dies after the 400
      case HttpParseResult::kOk:
        break;
    }
    requests_->Add();
    HttpResponse response = (*handler_)(parsed.request);
    ctx->Reply({SerializeHttpResponse(response, parsed.keep_alive),
                /*close_after=*/!parsed.keep_alive});
    return consumed;
  }

 private:
  HttpTcpServer::Handler* handler_;
  Counter* requests_;
  Counter* bad_requests_;
  size_t max_header_;
  size_t max_body_;
};

}  // namespace

HttpTcpServer::Options HttpTcpServer::Options::FromConfig(
    const Config& config) {
  Options options;
  options.reactor = net::Reactor::Options::FromConfig(config);
  return options;
}

HttpTcpServer::HttpTcpServer(Handler handler, MetricsRegistry* metrics,
                             Options options)
    : handler_(std::move(handler)),
      metrics_(metrics != nullptr ? metrics : MetricsRegistry::Default()),
      options_(options) {}

HttpTcpServer::~HttpTcpServer() {
  Stop();
  if (own_reactor_ != nullptr) own_reactor_->Stop();
}

net::Reactor* HttpTcpServer::reactor() {
  if (options_.shared_reactor != nullptr) return options_.shared_reactor;
  if (own_reactor_ == nullptr) {
    net::Reactor::Options reactor_options = options_.reactor;
    if (reactor_options.metrics == nullptr) reactor_options.metrics = metrics_;
    own_reactor_ = std::make_unique<net::Reactor>(reactor_options);
  }
  return own_reactor_.get();
}

Status HttpTcpServer::Start(int port) {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return Status::FailedPrecondition("server already running");
  net::Reactor* r = reactor();
  if (!r->running()) {
    HEDC_RETURN_IF_ERROR(r->Start());
  }
  Handler* handler = &handler_;
  Counter* connections = metrics_->GetCounter("web.http_connections");
  Counter* requests = metrics_->GetCounter("web.http_requests");
  Counter* bad_requests = metrics_->GetCounter("web.http_bad_requests");
  size_t max_header = options_.max_header_bytes;
  size_t max_body = options_.max_body_bytes;
  Result<net::Reactor::ListenerInfo> listener = r->AddListener(
      port,
      [handler, connections, requests, bad_requests, max_header, max_body] {
        connections->Add();
        return std::make_unique<HttpProtocol>(handler, requests, bad_requests,
                                              max_header, max_body);
      });
  if (!listener.ok()) return listener.status();
  listener_ = listener.value();
  running_ = true;
  return Status::Ok();
}

int HttpTcpServer::port() const {
  std::lock_guard<std::mutex> lock(mu_);
  return listener_.port;
}

bool HttpTcpServer::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

void HttpTcpServer::Stop() {
  int listener_id = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    running_ = false;
    listener_id = listener_.id;
    listener_ = net::Reactor::ListenerInfo{};
  }
  reactor()->CloseListener(listener_id);
}

}  // namespace hedc::web
