#ifndef DCWS_NET_INPROC_H_
#define DCWS_NET_INPROC_H_

#include <future>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/core/server.h"
#include "src/net/station.h"
#include "src/util/mutex.h"
#include "src/workload/browse.h"

namespace dcws::net {

class InprocNetwork;

// One DCWS server process realized with real threads, mirroring the
// paper's §5.1 architecture on a Station: a bounded accept queue (the
// socket queue, L_sq), N_wk worker threads draining it, and one
// statistics/pinger thread running the periodic duties.  Lives inside
// the test process — the transport is a queue hand-off instead of a TCP
// connection, but the concurrency (many workers + background duties
// against one Server) is genuine.
class InprocServerHost {
 public:
  InprocServerHost(core::Server* server, InprocNetwork* network);
  ~InprocServerHost();

  InprocServerHost(const InprocServerHost&) = delete;
  InprocServerHost& operator=(const InprocServerHost&) = delete;

  void Start() { station_.Start(); }
  // Abrupt kill: in-flight requests complete, queued requests fail
  // Unavailable (the crash ate them).  Start() afterwards restarts the
  // host against the same Server state — a process restart whose
  // document store survived.
  void Stop();
  // Graceful drain: new calls are refused Unavailable, queued requests
  // are served to completion, then the threads stop.
  void Drain() { station_.Drain(); }
  bool running() const { return station_.accepting(); }

  core::Server& server() { return *server_; }

  // Enqueues a request; blocks until the response is ready.  Returns 503
  // immediately when the socket queue is full.
  Result<http::Response> Call(const http::Request& request);

  uint64_t accepted() const { return station_.accepted(); }
  uint64_t dropped() const { return station_.dropped(); }

 private:
  struct Job {
    http::Request request;
    std::promise<Result<http::Response>> promise;
  };

  core::Server* server_;
  InprocNetwork* network_;
  Station<Job> station_;
};

// Routes server-to-server and client traffic between hosts in this
// process.  Implements core::PeerClient so Server's internal calls
// (migration fetches, validations, pings, revokes) travel through the
// same queues as client requests.  Supports crash injection.
class InprocNetwork : public core::PeerClient {
 public:
  ~InprocNetwork() override;

  // Creates (and starts) a host for `server`.  The server must outlive
  // the network.
  InprocServerHost& AddServer(core::Server* server);

  InprocServerHost* Find(const http::ServerAddress& address) const;

  // Membership removal: drains the host and unregisters the address so
  // later calls fail NotFound.  The host object is retired, not
  // destroyed, because a concurrent Execute may still be blocked in its
  // Call — it stays alive (stopped) until the network is destroyed.
  void RemoveServer(const http::ServerAddress& address);

  void SetDown(const http::ServerAddress& address, bool down);
  bool IsDown(const http::ServerAddress& address) const;

  void StopAll();

  Result<http::Response> Execute(const http::ServerAddress& target,
                                 const http::Request& request) override;

 private:
  mutable Mutex mutex_;
  std::unordered_map<http::ServerAddress,
                     std::unique_ptr<InprocServerHost>,
                     http::ServerAddressHash>
      hosts_ DCWS_GUARDED_BY(mutex_);
  // Hosts removed from the address map but kept alive for stragglers.
  std::vector<std::unique_ptr<InprocServerHost>> retired_
      DCWS_GUARDED_BY(mutex_);
  std::set<http::ServerAddress> down_ DCWS_GUARDED_BY(mutex_);
};

// workload::Fetcher over an InprocNetwork, for driving Algorithm-2
// clients (examples, integration tests) against a threaded cluster.
class InprocFetcher : public workload::Fetcher {
 public:
  explicit InprocFetcher(InprocNetwork* network) : network_(network) {}
  Result<http::Response> Fetch(const http::Url& url) override;

 private:
  InprocNetwork* network_;
};

}  // namespace dcws::net

#endif  // DCWS_NET_INPROC_H_
