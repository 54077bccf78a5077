/// \file socket.hpp
/// \brief Thin RAII layer over POSIX TCP sockets: the only file in the
/// serving front that touches file descriptors.
///
/// `Socket` owns one fd; `Listener` binds/listens (IPv4, SO_REUSEADDR,
/// ephemeral port supported via port 0) and accepts with a poll timeout so
/// an accept loop can observe a stop flag. All reads and writes are
/// poll-bounded: a peer that stalls can never wedge a worker forever.
/// Errors are reported as `api::Status` — the front decides what a failed
/// connection means; this layer never terminates the process (SIGPIPE is
/// suppressed per-send with MSG_NOSIGNAL).

#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "api/status.hpp"

namespace mfti::net {

/// Owning wrapper of one connected TCP socket.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// Wait up to `timeout_ms` for readability. Returns 1 when readable, 0 on
  /// timeout, -1 on error or hangup-with-nothing-to-read.
  int wait_readable(int timeout_ms) const;

  /// Read once into `out` (append), waiting up to `timeout_ms` first.
  /// Returns bytes read; 0 means orderly EOF; <0 means timeout/error.
  long read_some(std::string* out, int timeout_ms) const;

  /// Write all of `data`, polling for writability between chunks. Fails on
  /// a peer reset or when a single poll exceeds `timeout_ms`.
  api::Status write_all(std::string_view data, int timeout_ms) const;

  /// Best-effort nonblocking write of `data` (the 429 shed path: never
  /// stall the accept loop for a client that is not reading).
  void write_nonblocking(std::string_view data) const;

  /// Connect to `host:port` (numeric or resolvable name), bounded by
  /// `timeout_ms`.
  static api::Expected<Socket> connect(const std::string& host, int port,
                                       int timeout_ms);

 private:
  int fd_ = -1;
};

/// Listening TCP socket (IPv4, loopback by default).
class Listener {
 public:
  Listener() = default;
  ~Listener() { close(); }
  Listener(Listener&&) = delete;
  Listener& operator=(Listener&&) = delete;

  /// Bind to `address:port` and listen; `port == 0` picks an ephemeral
  /// port, readable afterwards from `port()`. A port outside 0..65535 is
  /// `invalid_argument`.
  api::Status listen(const std::string& address, int port, int backlog = 64);

  bool valid() const { return fd_ >= 0; }
  int port() const { return port_; }
  void close();

  /// Accept one connection, waiting up to `timeout_ms`. An invalid socket
  /// with an ok-ish flow is signalled by `Socket::valid() == false`
  /// (timeout); real errors return a non-ok status.
  api::Expected<Socket> accept(int timeout_ms);

 private:
  int fd_ = -1;
  int port_ = 0;
};

}  // namespace mfti::net
