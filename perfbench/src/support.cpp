// Statistics, spans and the benchmark's HTTP client.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "net/json.hpp"
#include "perfbench.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

// --- spans -----------------------------------------------------------------

int SpanLog::begin(std::string name, std::uint64_t request, int parent) {
  const double t = now_s();
  return add(std::move(name), request, parent, t, t);
}

void SpanLog::end(int index) { spans_[index].end = now_s(); }

int SpanLog::add(std::string name, std::uint64_t request, int parent,
                 double start, double end) {
  spans_.push_back({std::move(name), request, parent, start, end});
  return static_cast<int>(spans_.size()) - 1;
}

void write_spans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  double origin = 0.0;
  bool have_origin = false;
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      if (!have_origin || s.start < origin) origin = s.start;
      have_origin = true;
    }
  }
  for (std::size_t t = 0; t < logs.size(); ++t) {
    const std::vector<Span>& spans = logs[t].spans();
    std::vector<double> child_cover(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent < 0) continue;
      const Span& p = spans[s.parent];
      const double lo = std::max(s.start, p.start);
      const double hi = std::min(s.end, p.end);
      if (hi > lo) child_cover[s.parent] += hi - lo;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double dur = s.end - s.start;
      std::string name;
      mfti::net::json_escape(s.name, &name);
      std::fprintf(f,
                   "{\"thread\":%zu,\"id\":%zu,\"name\":%s,\"request\":%llu,"
                   "\"parent\":%d,\"start_us\":%.3f,\"end_us\":%.3f,"
                   "\"self_us\":%.3f}\n",
                   t, i, name.c_str(),
                   static_cast<unsigned long long>(s.request), s.parent,
                   (s.start - origin) * 1e6, (s.end - origin) * 1e6,
                   (dur - child_cover[i]) * 1e6);
    }
  }
  std::fclose(f);
}

// --- HTTP client -----------------------------------------------------------

namespace {

/// A stalled server must not hang the benchmark past its own deadline.
constexpr int kSocketTimeoutMs = 30000;

}  // namespace

bool HttpConn::connect(int port) {
  port_ = port;
  auto socket = mfti::net::Socket::connect("127.0.0.1", port, kSocketTimeoutMs);
  if (!socket) return false;
  socket_ = std::move(*socket);
  return true;
}

bool HttpConn::roundtrip(std::string_view request,
                         mfti::net::HttpResponse* response, double* sent,
                         double* done) {
  using State = mfti::net::HttpResponseParser::State;
  if (!socket_.valid() && !connect(port_)) return false;
  if (sent != nullptr) *sent = now_s();
  if (!socket_.write_all(request, kSocketTimeoutMs).is_ok()) {
    socket_.close();
    return false;
  }
  mfti::net::HttpResponseParser parser;
  std::string chunk;
  while (parser.state() == State::NeedMore) {
    chunk.clear();
    if (socket_.read_some(&chunk, kSocketTimeoutMs) <= 0) {
      socket_.close();
      return false;
    }
    parser.feed(chunk);
  }
  if (done != nullptr) *done = now_s();
  if (parser.state() == State::Error) {
    socket_.close();
    return false;
  }
  *response = parser.response();
  if (response->header("connection") == "close") socket_.close();
  return true;
}

std::string http_request(std::string method, std::string target,
                         std::string body,
                         std::map<std::string, std::string> headers) {
  mfti::net::HttpRequest request;
  request.method = std::move(method);
  request.target = std::move(target);
  if (!body.empty()) headers["Content-Type"] = "application/json";
  request.headers = std::move(headers);
  request.body = std::move(body);
  return mfti::net::serialize_request(request);
}

std::string eval_body(const std::string& model,
                      const std::vector<double>& freqs_hz) {
  std::string out = "{\"requests\":[{\"model\":";
  mfti::net::json_escape(model, &out);
  out.append(",\"freqs_hz\":[");
  char num[32];
  for (std::size_t i = 0; i < freqs_hz.size(); ++i) {
    if (i > 0) out.push_back(',');
    std::snprintf(num, sizeof num, "%.17g", freqs_hz[i]);
    out.append(num);
  }
  out.append("]}]}");
  return out;
}

namespace {

/// Value of the integer member `"key": N` starting at `pos`, or -1.
long int_after(std::string_view body, std::size_t pos) {
  while (pos < body.size() && (body[pos] == ' ' || body[pos] == ':')) ++pos;
  long v = 0;
  std::size_t digits = 0;
  while (pos < body.size() && body[pos] >= '0' && body[pos] <= '9') {
    v = v * 10 + (body[pos] - '0');
    ++pos;
    ++digits;
  }
  return digits == 0 ? -1 : v;
}

/// Every occurrence of `"key"` must carry `want`; returns the count, or
/// -1 on a mismatch.
long count_members(std::string_view body, std::string_view key, long want) {
  long count = 0;
  for (std::size_t pos = body.find(key); pos != std::string_view::npos;
       pos = body.find(key, pos + key.size())) {
    if (int_after(body, pos + key.size()) != want) return -1;
    ++count;
  }
  return count;
}

}  // namespace

long quick_check(std::string_view body, std::size_t points, std::size_t rows,
                 std::size_t cols) {
  constexpr std::string_view kVersion = "\"version\"";
  const std::size_t at = body.find(kVersion);
  if (at == std::string_view::npos ||
      body.find(kVersion, at + kVersion.size()) != std::string_view::npos ||
      body.find("\"error\"") != std::string_view::npos) {
    return -1;
  }
  const long want = static_cast<long>(points);
  if (count_members(body, "\"rows\"", static_cast<long>(rows)) != want ||
      count_members(body, "\"cols\"", static_cast<long>(cols)) != want) {
    return -1;
  }
  return int_after(body, at + kVersion.size());
}

}  // namespace perfbench
