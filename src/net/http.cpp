#include "net/http.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <optional>
#include <utility>

#include "net/status_http.hpp"
#include "util/knobs.hpp"

namespace mfti::net {

namespace {

std::string lowercase(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Split header block lines; returns false on a malformed line. Shared by
/// the request and response parsers.
bool parse_header_lines(std::string_view block, std::size_t max_headers,
                        std::map<std::string, std::string>* headers) {
  std::size_t pos = 0;
  while (pos < block.size()) {
    std::size_t eol = block.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = block.size();
    const std::string_view line = block.substr(pos, eol - pos);
    pos = eol + (eol < block.size() ? 2 : 0);
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) return false;
    if (headers->size() >= max_headers) return false;
    const std::string name = lowercase(trim(line.substr(0, colon)));
    std::string value(trim(line.substr(colon + 1)));
    const auto [slot, inserted] = headers->try_emplace(name, value);
    if (!inserted) {
      // Duplicate Content-Length headers with differing values must be
      // rejected (RFC 7230 §3.3.2): last-wins here while a proxy in front
      // honours the first is a request-smuggling vector.
      if (name == "content-length" && slot->second != value) return false;
      slot->second = std::move(value);
    }
  }
  return true;
}

}  // namespace

std::string_view HttpRequest::header(std::string_view name) const {
  const auto it = headers.find(lowercase(name));
  return it == headers.end() ? std::string_view{} : std::string_view(it->second);
}

bool HttpRequest::keep_alive() const {
  const std::string value = lowercase(header("connection"));
  if (value == "close") return false;
  if (value == "keep-alive") return true;
  return version == "HTTP/1.1";
}

std::string_view HttpRequest::path() const {
  const std::string_view t(target);
  const std::size_t q = t.find('?');
  return q == std::string_view::npos ? t : t.substr(0, q);
}

std::string_view HttpResponse::header(std::string_view name) const {
  const auto it = headers.find(lowercase(name));
  return it == headers.end() ? std::string_view{} : std::string_view(it->second);
}

// --- request parser ---------------------------------------------------------

HttpRequestParser::State HttpRequestParser::fail(int status,
                                                 std::string detail) {
  state_ = State::Error;
  error_status_ = status;
  error_ = std::move(detail);
  return state_;
}

void HttpRequestParser::reset() {
  state_ = State::NeedMore;
  head_done_ = false;
  body_needed_ = 0;
  request_ = HttpRequest{};
  error_.clear();
  error_status_ = 400;
  if (!buffer_.empty()) parse_buffer();
}

HttpRequestParser::State HttpRequestParser::feed(std::string_view bytes) {
  if (state_ != State::NeedMore) return state_;
  buffer_.append(bytes.data(), bytes.size());
  return parse_buffer();
}

HttpRequestParser::State HttpRequestParser::parse_buffer() {
  if (!head_done_) {
    const std::size_t head_end = buffer_.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      if (buffer_.size() > limits_.max_request_line + limits_.max_header_bytes) {
        return fail(431, "header block exceeds limit");
      }
      return state_;
    }
    const std::string_view head(buffer_.data(), head_end);
    const std::size_t line_end = head.find("\r\n");
    const std::string_view request_line =
        line_end == std::string_view::npos ? head : head.substr(0, line_end);
    if (request_line.size() > limits_.max_request_line) {
      return fail(431, "request line exceeds limit");
    }
    const std::size_t sp1 = request_line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
    if (sp2 == std::string_view::npos ||
        request_line.find(' ', sp2 + 1) != std::string_view::npos) {
      return fail(400, "malformed request line");
    }
    request_.method = std::string(request_line.substr(0, sp1));
    request_.target =
        std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
    request_.version = std::string(request_line.substr(sp2 + 1));
    if (request_.method.empty() || request_.target.empty() ||
        request_.target[0] != '/') {
      return fail(400, "malformed request line");
    }
    if (request_.version != "HTTP/1.1" && request_.version != "HTTP/1.0") {
      return fail(400, "unsupported HTTP version");
    }
    if (request_.method != "GET" && request_.method != "POST" &&
        request_.method != "HEAD") {
      return fail(405, "unsupported method");
    }
    const std::string_view header_block =
        line_end == std::string_view::npos
            ? std::string_view{}
            : head.substr(line_end + 2);
    if (header_block.size() > limits_.max_header_bytes) {
      return fail(431, "header block exceeds limit");
    }
    if (!parse_header_lines(header_block, limits_.max_headers,
                            &request_.headers)) {
      return fail(400, "malformed header");
    }
    if (!request_.header("transfer-encoding").empty()) {
      return fail(501, "transfer-encoding not supported");
    }
    body_needed_ = 0;
    const std::string_view length = request_.header("content-length");
    if (!length.empty()) {
      const std::optional<std::uint64_t> parsed =
          util::parse_uint(length, SIZE_MAX);
      if (!parsed) return fail(400, "malformed content-length");
      body_needed_ = static_cast<std::size_t>(*parsed);
    }
    if (body_needed_ > limits_.max_body_bytes) {
      return fail(413, "body exceeds limit");
    }
    buffer_.erase(0, head_end + 4);
    head_done_ = true;
  }
  if (buffer_.size() < body_needed_) return state_;
  request_.body = buffer_.substr(0, body_needed_);
  buffer_.erase(0, body_needed_);
  state_ = State::Complete;
  return state_;
}

// --- serialization ----------------------------------------------------------

std::string serialize_response(const HttpResponse& response, bool head_only) {
  std::string out;
  out.reserve(128 + response.body.size());
  out.append("HTTP/1.1 ");
  out.append(std::to_string(response.status));
  out.push_back(' ');
  out.append(response.reason.empty() ? http_reason(response.status)
                                     : response.reason.c_str());
  out.append("\r\n");
  bool have_length = false;
  for (const auto& [name, value] : response.headers) {
    if (lowercase(name) == "content-length") have_length = true;
    out.append(name);
    out.append(": ");
    out.append(value);
    out.append("\r\n");
  }
  if (!have_length) {
    out.append("Content-Length: ");
    out.append(std::to_string(response.body.size()));
    out.append("\r\n");
  }
  out.append("\r\n");
  if (!head_only) out.append(response.body);
  return out;
}

std::string serialize_request(const HttpRequest& request) {
  std::string out;
  out.reserve(128 + request.body.size());
  out.append(request.method);
  out.push_back(' ');
  out.append(request.target);
  out.push_back(' ');
  out.append(request.version.empty() ? "HTTP/1.1" : request.version.c_str());
  out.append("\r\n");
  bool have_length = false;
  for (const auto& [name, value] : request.headers) {
    if (lowercase(name) == "content-length") have_length = true;
    out.append(name);
    out.append(": ");
    out.append(value);
    out.append("\r\n");
  }
  if (!have_length && !request.body.empty()) {
    out.append("Content-Length: ");
    out.append(std::to_string(request.body.size()));
    out.append("\r\n");
  }
  out.append("\r\n");
  out.append(request.body);
  return out;
}

// --- response parser --------------------------------------------------------

HttpResponseParser::State HttpResponseParser::fail(std::string detail) {
  state_ = State::Error;
  error_ = std::move(detail);
  return state_;
}

void HttpResponseParser::reset() {
  state_ = State::NeedMore;
  head_done_ = false;
  body_needed_ = 0;
  response_ = HttpResponse{};
  error_.clear();
  if (!buffer_.empty()) parse_buffer();
}

HttpResponseParser::State HttpResponseParser::feed(std::string_view bytes) {
  if (state_ != State::NeedMore) return state_;
  buffer_.append(bytes.data(), bytes.size());
  return parse_buffer();
}

HttpResponseParser::State HttpResponseParser::parse_buffer() {
  if (!head_done_) {
    const std::size_t head_end = buffer_.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      if (buffer_.size() >
          limits_.max_request_line + limits_.max_header_bytes) {
        return fail("header block exceeds limit");
      }
      return state_;
    }
    const std::string_view head(buffer_.data(), head_end);
    const std::size_t line_end = head.find("\r\n");
    const std::string_view status_line =
        line_end == std::string_view::npos ? head : head.substr(0, line_end);
    // "HTTP/1.1 200 OK" — the reason phrase may contain spaces.
    const std::size_t sp1 = status_line.find(' ');
    if (sp1 == std::string_view::npos || !status_line.starts_with("HTTP/")) {
      return fail("malformed status line");
    }
    const std::size_t sp2 = status_line.find(' ', sp1 + 1);
    const std::string_view code_text = status_line.substr(
        sp1 + 1,
        (sp2 == std::string_view::npos ? status_line.size() : sp2) - sp1 - 1);
    if (code_text.size() != 3) return fail("malformed status code");
    int code = 0;
    for (const char c : code_text) {
      if (c < '0' || c > '9') return fail("malformed status code");
      code = code * 10 + (c - '0');
    }
    response_.status = code;
    if (sp2 != std::string_view::npos) {
      response_.reason = std::string(status_line.substr(sp2 + 1));
    }
    const std::string_view header_block =
        line_end == std::string_view::npos
            ? std::string_view{}
            : head.substr(line_end + 2);
    if (!parse_header_lines(header_block, limits_.max_headers,
                            &response_.headers)) {
      return fail("malformed header");
    }
    body_needed_ = 0;
    const std::string_view length = response_.header("content-length");
    if (!length.empty()) {
      const std::optional<std::uint64_t> parsed =
          util::parse_uint(length, SIZE_MAX);
      if (!parsed) return fail("malformed content-length");
      body_needed_ = static_cast<std::size_t>(*parsed);
    }
    if (body_needed_ > limits_.max_body_bytes) {
      return fail("body exceeds limit");
    }
    buffer_.erase(0, head_end + 4);
    head_done_ = true;
  }
  if (buffer_.size() < body_needed_) return state_;
  response_.body = buffer_.substr(0, body_needed_);
  buffer_.erase(0, body_needed_);
  state_ = State::Complete;
  return state_;
}

}  // namespace mfti::net
