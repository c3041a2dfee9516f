#include "src/net/inproc.h"

namespace dcws::net {

InprocServerHost::InprocServerHost(core::Server* server,
                                   InprocNetwork* network)
    : server_(server),
      network_(network),
      station_(server, network, [this](Job job, core::RequestTrace* trace) {
        // The handler may itself call back into the network (co-op
        // fetch), blocking this worker on another host's queue — exactly
        // as a real worker thread blocks on an upstream HTTP connection.
        job.promise.set_value(
            server_->HandleRequest(job.request, network_, trace));
      }) {}

InprocServerHost::~InprocServerHost() { Stop(); }

void InprocServerHost::Stop() {
  for (Job& job : station_.Stop()) {
    job.promise.set_value(Status::Unavailable(
        "server stopped: " + server_->address().ToString()));
  }
}

Result<http::Response> InprocServerHost::Call(
    const http::Request& request) {
  Job job{request, {}};
  std::future<Result<http::Response>> future = job.promise.get_future();
  Offered offered = station_.Offer(job);
  if (offered == Offered::kClosed) {
    return Status::Unavailable("server not running: " +
                               server_->address().ToString());
  }
  if (offered == Offered::kFull) {
    // Socket queue overflow: graceful 503 (§5.2).  The server never sees
    // the request, so feed its outcome counters and event journal
    // directly (the request is already parsed here, so the kQueueDrop
    // event carries the shed target and trace id).  The emit happens
    // outside the station lock: it locks journal slots and may write the
    // JSONL sink, and the queue must keep moving meanwhile.
    server_->CountQueueDrop(&request);
    return http::MakeOverloadedResponse();
  }
  return future.get();
}

InprocNetwork::~InprocNetwork() { StopAll(); }

InprocServerHost& InprocNetwork::AddServer(core::Server* server) {
  MutexLock lock(mutex_);
  auto host = std::make_unique<InprocServerHost>(server, this);
  host->Start();
  auto [it, inserted] =
      hosts_.emplace(server->address(), std::move(host));
  return *it->second;
}

InprocServerHost* InprocNetwork::Find(
    const http::ServerAddress& address) const {
  MutexLock lock(mutex_);
  auto it = hosts_.find(address);
  return it == hosts_.end() ? nullptr : it->second.get();
}

void InprocNetwork::RemoveServer(const http::ServerAddress& address) {
  std::unique_ptr<InprocServerHost> host;
  {
    MutexLock lock(mutex_);
    auto it = hosts_.find(address);
    if (it == hosts_.end()) return;
    host = std::move(it->second);
    hosts_.erase(it);
    down_.erase(address);
  }
  // Drain outside the map lock (workers may be blocked in Execute).
  host->Drain();
  MutexLock lock(mutex_);
  retired_.push_back(std::move(host));
}

void InprocNetwork::SetDown(const http::ServerAddress& address,
                            bool down) {
  MutexLock lock(mutex_);
  if (down) {
    down_.insert(address);
  } else {
    down_.erase(address);
  }
}

bool InprocNetwork::IsDown(const http::ServerAddress& address) const {
  MutexLock lock(mutex_);
  return down_.contains(address);
}

void InprocNetwork::StopAll() {
  // Stop outside the map lock: workers may be blocked in Execute, which
  // needs Find.
  std::vector<InprocServerHost*> hosts;
  {
    MutexLock lock(mutex_);
    for (auto& [address, host] : hosts_) hosts.push_back(host.get());
  }
  for (InprocServerHost* host : hosts) host->Stop();
}

Result<http::Response> InprocNetwork::Execute(
    const http::ServerAddress& target, const http::Request& request) {
  InprocServerHost* host = nullptr;
  {
    MutexLock lock(mutex_);
    if (down_.contains(target)) {
      return Status::Unavailable("server down: " + target.ToString());
    }
    auto it = hosts_.find(target);
    if (it == hosts_.end()) {
      return Status::NotFound("no such server: " + target.ToString());
    }
    host = it->second.get();
  }
  return host->Call(request);
}

Result<http::Response> InprocFetcher::Fetch(const http::Url& url) {
  http::Request request;
  request.method = "GET";
  request.target = url.path;
  request.headers.Set(std::string(http::kHeaderHost), url.Authority());
  return network_->Execute({url.host, url.port}, request);
}

}  // namespace dcws::net
