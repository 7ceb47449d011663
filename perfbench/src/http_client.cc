#include "http_client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace perfbench {

namespace {

std::string Lower(std::string s) {
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

}  // namespace

ReadResult ParseHttpResponse(const char* data, size_t n, HttpReply* out,
                             size_t* consumed) {
  std::string_view view(data, n);
  size_t head_end = view.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    return n > (64u << 10) ? ReadResult::kBad : ReadResult::kNeedMore;
  }
  std::string head(data, head_end);
  size_t line_end = head.find("\r\n");
  std::string status_line = head.substr(0, line_end);
  if (status_line.rfind("HTTP/1.", 0) != 0 || status_line.size() < 12 ||
      status_line[8] != ' ') {
    return ReadResult::kBad;
  }
  char* end = nullptr;
  long code = std::strtol(status_line.c_str() + 9, &end, 10);
  if (end != status_line.c_str() + 12 || code < 100 || code > 599) {
    return ReadResult::kBad;
  }

  HttpReply reply;
  reply.status = static_cast<int>(code);
  bool have_length = false;
  size_t body_len = 0;
  size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    std::string line = head.substr(pos, eol - pos);
    pos = eol + 2;
    size_t colon = line.find(':');
    if (colon == std::string::npos) return ReadResult::kBad;
    std::string name = Lower(Trim(line.substr(0, colon)));
    std::string value = Trim(line.substr(colon + 1));
    if (name == "content-length") {
      errno = 0;
      char* len_end = nullptr;
      unsigned long long v = std::strtoull(value.c_str(), &len_end, 10);
      if (value.empty() || !std::isdigit(static_cast<unsigned char>(value[0])) ||
          *len_end != '\0' || errno != 0 || v > (1ull << 30)) {
        return ReadResult::kBad;
      }
      body_len = static_cast<size_t>(v);
      have_length = true;
    } else if (name == "content-type") {
      reply.content_type = value;
    } else if (name == "connection") {
      reply.keep_alive = Lower(value) != "close";
    } else if (name == "set-cookie") {
      size_t eq = value.find('=');
      if (eq == std::string::npos) return ReadResult::kBad;
      reply.set_cookies[value.substr(0, eq)] = value.substr(eq + 1);
    }
  }
  if (!have_length) return ReadResult::kBad;
  size_t total = head_end + 4 + body_len;
  if (n < total) return ReadResult::kNeedMore;
  reply.body.assign(data + head_end + 4, body_len);
  *out = std::move(reply);
  *consumed = total;
  return ReadResult::kOk;
}

hedc::Status HttpClient::Connect(int port) {
  HEDC_ASSIGN_OR_RETURN(socket_, hedc::net::TcpConnect("127.0.0.1", port));
  int one = 1;
  setsockopt(socket_.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  buffer_.clear();
  return hedc::Status::Ok();
}

hedc::Result<HttpReply> HttpClient::Get(const std::string& target,
                                        const std::string& cookies) {
  std::string request = "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!cookies.empty()) request += "Cookie: " + cookies + "\r\n";
  request += "\r\n";
  HEDC_RETURN_IF_ERROR(socket_.SendAll(
      reinterpret_cast<const uint8_t*>(request.data()), request.size()));
  char chunk[64 * 1024];
  while (true) {
    HttpReply reply;
    size_t consumed = 0;
    switch (ParseHttpResponse(buffer_.data(), buffer_.size(), &reply,
                              &consumed)) {
      case ReadResult::kOk:
        buffer_.erase(0, consumed);
        return reply;
      case ReadResult::kBad:
        return hedc::Status::Corruption("malformed HTTP response");
      case ReadResult::kNeedMore:
        break;
    }
    ssize_t got = ::recv(socket_.fd(), chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return hedc::Status::Unavailable("connection closed");
    buffer_.append(chunk, static_cast<size_t>(got));
  }
}

}  // namespace perfbench
