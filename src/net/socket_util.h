#ifndef DCWS_NET_SOCKET_UTIL_H_
#define DCWS_NET_SOCKET_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/result.h"

namespace dcws::net {

// Thin RAII + Status wrappers over POSIX TCP sockets (loopback only:
// the TCP transport binds 127.0.0.1; cooperating server *names* are
// resolved by the TcpNetwork registry, standing in for DNS).

class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  // Releases ownership.
  int Release();
  void Close();

 private:
  int fd_ = -1;
};

// Creates a listening socket on 127.0.0.1:`port` (port 0 = ephemeral).
// Returns the socket; the actually-bound port is written to
// `bound_port`.
Result<Socket> ListenLoopback(uint16_t port, int backlog,
                              uint16_t* bound_port);

// Connects to 127.0.0.1:`port`.
Result<Socket> ConnectLoopback(uint16_t port);

// Blocking full write.
Status WriteAll(const Socket& socket, std::string_view data);

// Blocking full write of `head` followed by `body` as one gathered
// stream (sendmsg over two iovecs), so a message's head and body go out
// without first being copied into one buffer.  Partial writes resume
// mid-iovec; on a non-blocking socket a full send buffer is waited out.
Status WriteAll(const Socket& socket, std::string_view head,
                std::string_view body);

// Blocking read of up to `max` bytes; empty string = orderly shutdown.
Result<std::string> ReadSome(const Socket& socket, size_t max = 64 * 1024);

}  // namespace dcws::net

#endif  // DCWS_NET_SOCKET_UTIL_H_
