#include "src/net/socket_util.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace dcws::net {

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

int Socket::Release() {
  int fd = fd_;
  fd_ = -1;
  return fd;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Socket> ListenLoopback(uint16_t port, int backlog,
                              uint16_t* bound_port) {
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) {
    return Status::Internal(Errno("socket"));
  }
  int one = 1;
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(socket.fd(), reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return Status::Internal(Errno("bind"));
  }
  if (::listen(socket.fd(), backlog) < 0) {
    return Status::Internal(Errno("listen"));
  }
  if (bound_port != nullptr) {
    socklen_t len = sizeof(addr);
    if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&addr),
                      &len) < 0) {
      return Status::Internal(Errno("getsockname"));
    }
    *bound_port = ntohs(addr.sin_port);
  }
  return socket;
}

Result<Socket> ConnectLoopback(uint16_t port) {
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) {
    return Status::Internal(Errno("socket"));
  }
  int one = 1;
  ::setsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(socket.fd(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    return Status::Unavailable(Errno("connect"));
  }
  return socket;
}

Status WriteAll(const Socket& socket, std::string_view data) {
  return WriteAll(socket, data, {});
}

Status WriteAll(const Socket& socket, std::string_view head,
                std::string_view body) {
  iovec iov[2] = {{const_cast<char*>(head.data()), head.size()},
                  {const_cast<char*>(body.data()), body.size()}};
  iovec* next = iov;
  size_t count = 2;
  while (true) {
    while (count > 0 && next->iov_len == 0) {
      ++next;
      --count;
    }
    if (count == 0) return Status::Ok();
    msghdr msg{};
    msg.msg_iov = next;
    msg.msg_iovlen = count;
    ssize_t n = ::sendmsg(socket.fd(), &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Non-blocking socket with a full send buffer: wait for room.
        pollfd writable{socket.fd(), POLLOUT, 0};
        if (::poll(&writable, 1, -1) >= 0 || errno == EINTR) continue;
        return Status::Unavailable(Errno("poll"));
      }
      return Status::Unavailable(Errno("sendmsg"));
    }
    // Consume the sent bytes; a partial write leaves `next` mid-iovec.
    auto sent = static_cast<size_t>(n);
    while (sent > 0) {
      size_t step = std::min(sent, next->iov_len);
      next->iov_base = static_cast<char*>(next->iov_base) + step;
      next->iov_len -= step;
      sent -= step;
      if (next->iov_len == 0) {
        ++next;
        --count;
      }
    }
  }
}

Result<std::string> ReadSome(const Socket& socket, size_t max) {
  std::string buffer;
  buffer.resize(max);
  while (true) {
    ssize_t n = ::recv(socket.fd(), buffer.data(), max, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(Errno("recv"));
    }
    buffer.resize(static_cast<size_t>(n));
    return buffer;
  }
}

}  // namespace dcws::net
