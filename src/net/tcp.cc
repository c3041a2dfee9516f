#include "src/net/tcp.h"

#include <sys/socket.h>

#include "src/http/wire.h"

namespace dcws::net {

namespace {

// Every message leaves through one gathered write: the serialized head
// and the body, without concatenating them first.
template <typename Message>
Status WriteMessage(const Socket& conn, const Message& message) {
  return WriteAll(conn, message.SerializeHead(), message.body);
}

Status WriteBadRequest(const Socket& conn) {
  http::Response bad;
  bad.status_code = 400;
  return WriteMessage(conn, bad);
}

}  // namespace

TcpServerHost::TcpServerHost(core::Server* server, TcpNetwork* network)
    : server_(server),
      network_(network),
      station_(server, network,
               [this](Socket conn, core::RequestTrace* trace) {
                 ServeConnection(std::move(conn), trace);
               }) {}

Result<std::unique_ptr<TcpServerHost>> TcpServerHost::Start(
    core::Server* server, TcpNetwork* network, uint16_t listen_port) {
  std::unique_ptr<TcpServerHost> host(
      new TcpServerHost(server, network));
  uint16_t bound = 0;
  DCWS_ASSIGN_OR_RETURN(
      host->listener_,
      ListenLoopback(listen_port,
                     server->params().socket_queue_length, &bound));
  host->port_ = bound;
  // The station first: the accept loop exits once offers are refused.
  host->station_.Start();
  host->accept_thread_ = std::thread([h = host.get()]() {
    h->AcceptLoop();
  });
  return host;
}

TcpServerHost::~TcpServerHost() { Stop(); }

void TcpServerHost::Stop() {
  // Queued connections come back unserved and close as they go out of
  // scope.
  station_.Stop([this]() {
    // Wake the blocked accept() WITHOUT closing the listener: shutdown()
    // only reads the fd, while Close() would write fd_ = -1 racing the
    // accept thread's listener_.fd() read — and would let the kernel
    // hand the fd number to a concurrent open before accept() rechecks
    // it.  A self-connection poke covers platforms where shutdown() on a
    // listening socket does not unblock accept.  The fd is closed only
    // after the accept thread has exited.
    ::shutdown(listener_.fd(), SHUT_RDWR);
    { auto poke = ConnectLoopback(port_); }
    if (accept_thread_.joinable()) accept_thread_.join();
    listener_.Close();
  });
}

void TcpServerHost::AcceptLoop() {
  while (true) {
    int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (!station_.accepting()) return;
      continue;
    }
    Socket conn(fd);
    Offered offered = station_.Offer(conn);
    if (offered == Offered::kClosed) return;  // stopping; `conn` closes
    if (offered == Offered::kFull) {
      // Socket queue overflow: graceful 503 (§5.2) and close.  The
      // server never sees the request; feed its outcome counters and
      // event journal (nullptr: the drop happens before the wire bytes
      // are parsed, so the event has no target or trace id).  Both the
      // 503 write and the journal emit happen outside the station lock —
      // a slow client reading its rejection must not stall the accept
      // path or the workers draining the queue.
      server_->CountQueueDrop(nullptr);
      (void)WriteMessage(conn, http::MakeOverloadedResponse());
    }
  }
}

void TcpServerHost::ServeConnection(Socket conn,
                                    core::RequestTrace* trace) {
  // HTTP/1.0: one request per connection.
  MicroTime read_start = server_->clock()->Now();
  http::MessageFramer framer;
  std::optional<std::string> wire;
  while (!wire.has_value()) {
    auto chunk = ReadSome(conn);
    if (!chunk.ok() || chunk->empty()) return;  // peer went away
    framer.Feed(*chunk);
    wire = framer.NextMessage();
    if (framer.has_error()) {
      (void)WriteBadRequest(conn);
      return;
    }
  }
  auto request = http::ParseRequest(*wire);
  if (!request.ok()) {
    (void)WriteBadRequest(conn);
    return;
  }
  MicroTime parsed = server_->clock()->Now();
  if (parsed > read_start) trace->parse_micros = parsed - read_start;
  http::Response response =
      server_->HandleRequest(*request, network_, trace);
  MicroTime write_start = server_->clock()->Now();
  (void)WriteMessage(conn, response);
  server_->ObserveNetWrite(server_->clock()->Now() - write_start);
}

TcpNetwork::~TcpNetwork() { StopAll(); }

Result<TcpServerHost*> TcpNetwork::AddServer(core::Server* server,
                                             uint16_t listen_port) {
  DCWS_ASSIGN_OR_RETURN(std::unique_ptr<TcpServerHost> host,
                        TcpServerHost::Start(server, this, listen_port));
  TcpServerHost* raw = host.get();
  MutexLock lock(mutex_);
  ports_[server->address()] = raw->port();
  hosts_[server->address()] = std::move(host);
  return raw;
}

bool TcpNetwork::StopServer(const http::ServerAddress& address) {
  std::unique_ptr<TcpServerHost> host;
  {
    MutexLock lock(mutex_);
    auto it = hosts_.find(address);
    if (it == hosts_.end()) return false;
    host = std::move(it->second);
    hosts_.erase(it);
    // ports_ keeps the entry: dials now get connection-refused.
  }
  // Stop outside the lock — in-flight ServeConnection handlers may call
  // back into Execute/Resolve.
  host->Stop();
  MutexLock lock(mutex_);
  retired_.push_back(std::move(host));
  return true;
}

Result<TcpServerHost*> TcpNetwork::StartServer(core::Server* server) {
  uint16_t port = 0;
  {
    MutexLock lock(mutex_);
    auto it = ports_.find(server->address());
    if (it == ports_.end()) {
      return Status::NotFound("server never added: " +
                              server->address().ToString());
    }
    if (hosts_.contains(server->address())) {
      return Status::FailedPrecondition("server already running: " +
                                        server->address().ToString());
    }
    port = it->second;
  }
  // SO_REUSEADDR on the listener makes rebinding the same port safe even
  // with lingering TIME_WAIT connections from the previous incarnation.
  DCWS_ASSIGN_OR_RETURN(std::unique_ptr<TcpServerHost> host,
                        TcpServerHost::Start(server, this, port));
  TcpServerHost* raw = host.get();
  MutexLock lock(mutex_);
  hosts_[server->address()] = std::move(host);
  return raw;
}

bool TcpNetwork::RemoveServer(const http::ServerAddress& address) {
  bool stopped = StopServer(address);
  MutexLock lock(mutex_);
  return ports_.erase(address) > 0 || stopped;
}

uint16_t TcpNetwork::Resolve(const http::ServerAddress& address) const {
  MutexLock lock(mutex_);
  auto it = ports_.find(address);
  return it == ports_.end() ? 0 : it->second;
}

void TcpNetwork::StopAll() {
  std::vector<TcpServerHost*> hosts;
  {
    MutexLock lock(mutex_);
    for (auto& [address, host] : hosts_) hosts.push_back(host.get());
  }
  for (TcpServerHost* host : hosts) host->Stop();
}

Result<http::Response> TcpCall(uint16_t port,
                               const http::Request& request) {
  DCWS_ASSIGN_OR_RETURN(Socket conn, ConnectLoopback(port));
  DCWS_RETURN_IF_ERROR(WriteMessage(conn, request));
  http::MessageFramer framer;
  while (true) {
    auto chunk = ReadSome(conn);
    if (!chunk.ok()) return chunk.status();
    if (chunk->empty()) {
      return Status::Unavailable("connection closed mid-response");
    }
    framer.Feed(*chunk);
    if (auto wire = framer.NextMessage()) {
      return http::ParseResponse(*wire);
    }
    if (framer.has_error()) return framer.error();
  }
}

Result<http::Response> TcpNetwork::Execute(
    const http::ServerAddress& target, const http::Request& request) {
  uint16_t port = Resolve(target);
  if (port == 0) {
    return Status::NotFound("no such server: " + target.ToString());
  }
  return TcpCall(port, request);
}

Result<http::Response> TcpFetcher::Fetch(const http::Url& url) {
  http::Request request;
  request.method = "GET";
  request.target = url.path;
  request.headers.Set(std::string(http::kHeaderHost), url.Authority());
  return network_->Execute({url.host, url.port}, request);
}

}  // namespace dcws::net
