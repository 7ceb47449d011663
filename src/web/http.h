// HTTP-lite request/response structures.
//
// The build environment has no network access, so the presentation tier
// speaks these in-process structures; servlet logic, templates, cookies
// and sessions are fully implemented (DESIGN.md §6-known-deltas).
#ifndef HEDC_WEB_HTTP_H_
#define HEDC_WEB_HTTP_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hedc::web {

struct HttpRequest {
  std::string method = "GET";
  std::string path;                          // "/hle"
  std::map<std::string, std::string> query;  // parsed query parameters
  std::map<std::string, std::string> cookies;
  std::string client_ip = "127.0.0.1";
  std::string body;
  // Request-tracing id; assigned by WebServer::Dispatch (mutable so the
  // server can stamp a const request). 0 = untraced.
  mutable int64_t trace_id = 0;

  std::string GetQuery(const std::string& key,
                       const std::string& fallback = "") const {
    auto it = query.find(key);
    return it == query.end() ? fallback : it->second;
  }
  std::string GetCookie(const std::string& key,
                        const std::string& fallback = "") const {
    auto it = cookies.find(key);
    return it == cookies.end() ? fallback : it->second;
  }
};

struct HttpResponse {
  int status_code = 200;
  std::string content_type = "text/html";
  std::string body;
  std::vector<uint8_t> binary_body;  // images
  std::map<std::string, std::string> set_cookies;

  // Error pages. The text is HTML-escaped: it often carries request text.
  static HttpResponse NotFound(std::string_view what);
  static HttpResponse Forbidden(std::string_view why);
  static HttpResponse BadRequest(std::string_view why);

  size_t TotalBytes() const { return body.size() + binary_body.size(); }
};

// Parses "a=1&b=x" into a map (no %-decoding beyond '+' -> ' ').
std::map<std::string, std::string> ParseQueryString(const std::string& qs);

// Builds an HttpRequest from a URL like "/hle?id=7".
HttpRequest MakeRequest(const std::string& url,
                        const std::string& client_ip = "127.0.0.1",
                        const std::string& cookie = "");

}  // namespace hedc::web

#endif  // HEDC_WEB_HTTP_H_
