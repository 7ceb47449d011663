#include "web/http.h"

#include "core/strings.h"
#include "web/template.h"

namespace hedc::web {

namespace {

HttpResponse ErrorPage(int status_code, std::string_view text) {
  HttpResponse r;
  r.status_code = status_code;
  r.body = "<html><body><h1>" + std::to_string(status_code) + "</h1><p>";
  HtmlEscape(text, &r.body);
  r.body += "</p></body></html>";
  return r;
}

}  // namespace

HttpResponse HttpResponse::NotFound(std::string_view what) {
  return ErrorPage(404, what);
}

HttpResponse HttpResponse::Forbidden(std::string_view why) {
  return ErrorPage(403, why);
}

HttpResponse HttpResponse::BadRequest(std::string_view why) {
  return ErrorPage(400, why);
}

std::map<std::string, std::string> ParseQueryString(const std::string& qs) {
  std::map<std::string, std::string> out;
  for (const std::string& pair : Split(qs, '&')) {
    if (pair.empty()) continue;
    size_t eq = pair.find('=');
    std::string key = eq == std::string::npos ? pair : pair.substr(0, eq);
    std::string value = eq == std::string::npos ? "" : pair.substr(eq + 1);
    for (char& c : value) {
      if (c == '+') c = ' ';
    }
    out[key] = value;
  }
  return out;
}

HttpRequest MakeRequest(const std::string& url, const std::string& client_ip,
                        const std::string& cookie) {
  HttpRequest request;
  request.client_ip = client_ip;
  size_t q = url.find('?');
  if (q == std::string::npos) {
    request.path = url;
  } else {
    request.path = url.substr(0, q);
    request.query = ParseQueryString(url.substr(q + 1));
  }
  if (!cookie.empty()) request.cookies["hedc_session"] = cookie;
  return request;
}

}  // namespace hedc::web
