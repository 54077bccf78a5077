#include "net/socket.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>

namespace mfti::net {

namespace {

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return;
  ::fcntl(fd, F_SETFL, on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK));
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

int Socket::wait_readable(int timeout_ms) const {
  struct pollfd pfd;
  pfd.fd = fd_;
  pfd.events = POLLIN;
  pfd.revents = 0;
  const int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc <= 0) return rc;
  if ((pfd.revents & (POLLIN | POLLHUP)) != 0) return 1;
  return -1;  // POLLERR / POLLNVAL
}

long Socket::read_some(std::string* out, int timeout_ms) const {
  const int ready = wait_readable(timeout_ms);
  if (ready <= 0) return -1;
  char buf[16384];
  const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
  if (n < 0) return -1;
  out->append(buf, static_cast<std::size_t>(n));
  return static_cast<long>(n);
}

api::Status Socket::write_all(std::string_view data, int timeout_ms) const {
  std::size_t sent = 0;
  while (sent < data.size()) {
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLOUT;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc <= 0) {
      return api::Status::internal(rc == 0 ? "socket write timeout"
                                           : errno_text("poll"));
    }
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return api::Status::internal(errno_text("send"));
    }
    sent += static_cast<std::size_t>(n);
  }
  return api::Status::ok();
}

void Socket::write_nonblocking(std::string_view data) const {
  set_nonblocking(fd_, true);
  // One shot: a response this small (a 429 with two headers) fits any sane
  // socket buffer; if the peer's window is closed we drop it and close.
  (void)::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
}

api::Expected<Socket> Socket::connect(const std::string& host, int port,
                                      int timeout_ms) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof hints);
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* result = nullptr;
  const int gai = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                                &hints, &result);
  if (gai != 0 || result == nullptr) {
    return api::Status::invalid_argument("cannot resolve '" + host +
                                         "': " + ::gai_strerror(gai));
  }
  int fd = ::socket(result->ai_family, result->ai_socktype,
                    result->ai_protocol);
  if (fd < 0) {
    ::freeaddrinfo(result);
    return api::Status::internal(errno_text("socket"));
  }
  set_nonblocking(fd, true);
  int rc = ::connect(fd, result->ai_addr, result->ai_addrlen);
  ::freeaddrinfo(result);
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return api::Status::internal(errno_text("connect"));
  }
  if (rc != 0) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    pfd.revents = 0;
    rc = ::poll(&pfd, 1, timeout_ms);
    int err = 0;
    socklen_t len = sizeof err;
    if (rc <= 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      ::close(fd);
      return api::Status::internal(rc == 0 ? "connect timeout"
                                           : errno_text("connect"));
    }
  }
  set_nonblocking(fd, false);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return Socket(fd);
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

api::Status Listener::listen(const std::string& address, int port,
                             int backlog) {
  close();
  if (port < 0 || port > 65535) {
    return api::Status::invalid_argument(
        "bad port " + std::to_string(port) + " (want 0..65535)");
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return api::Status::internal(errno_text("socket"));
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    close();
    return api::Status::invalid_argument("bad bind address '" + address +
                                         "' (want IPv4 dotted quad)");
  }
  if (::bind(fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof addr) != 0) {
    const api::Status status = api::Status::internal(errno_text("bind"));
    close();
    return status;
  }
  if (::listen(fd_, backlog) != 0) {
    const api::Status status = api::Status::internal(errno_text("listen"));
    close();
    return status;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<struct sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  return api::Status::ok();
}

api::Expected<Socket> Listener::accept(int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd_;
  pfd.events = POLLIN;
  pfd.revents = 0;
  const int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc == 0) return Socket();  // timeout: caller re-checks its stop flag
  if (rc < 0) {
    if (errno == EINTR) return Socket();
    return api::Status::internal(errno_text("poll"));
  }
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
        errno == EWOULDBLOCK) {
      return Socket();
    }
    return api::Status::internal(errno_text("accept"));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return Socket(fd);
}

}  // namespace mfti::net
