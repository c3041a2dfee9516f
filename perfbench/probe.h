#ifndef DCWS_PERFBENCH_PROBE_H_
#define DCWS_PERFBENCH_PROBE_H_

// Client side of the live-TCP benchmark: a workload::Fetcher that times
// every HTTP exchange (connect -> request written -> first byte -> last
// byte -> parsed), checks each response against the generated site, and
// keeps bench-side spans in memory until the run writes them out.

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/http/url.h"
#include "src/net/tcp.h"
#include "src/storage/document.h"
#include "src/util/rng.h"
#include "src/workload/browse.h"
#include "src/workload/site.h"

namespace dcws::perfbench {

// Monotonic nanoseconds (steady_clock), the bench's only time source.
int64_t NowNanos();

// CPU time of the calling thread, in microseconds.
int64_t ThreadCpuMicros();

// One bench-side span: a timed call into a layer, recorded in memory.
// Spans of one exchange share `trace`; `parent` is 0 for a root span.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t trace = 0;
  const char* name = "";  // string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Per-thread span store.  Holds at most kMaxSpans spans and counts the
// rest.  Ids are unique across logs: the log index sits in the high
// bits.
class SpanLog {
 public:
  static constexpr size_t kMaxSpans = 1 << 16;

  explicit SpanLog(uint32_t log_index)
      : next_id_(uint64_t{log_index} << 40) {}

  uint64_t NewId() { return ++next_id_; }
  void Add(uint64_t id, uint64_t parent, uint64_t trace, const char* name,
           int64_t start_ns, int64_t end_ns) {
    if (spans_.size() >= kMaxSpans) {
      ++overflow_;
      return;
    }
    spans_.push_back(Span{id, parent, trace, name, start_ns, end_ns});
  }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t overflow() const { return overflow_; }

 private:
  uint64_t next_id_;
  uint64_t overflow_ = 0;
  std::vector<Span> spans_;
};

// A measurement window cut into equal slices.  Generator threads book
// each operation to the slice current when it starts; with tracing on,
// odd slices are traced and even ones are not.
struct SliceClock {
  std::atomic<int> slice{0};
  bool trace = false;

  int Now() const { return slice.load(std::memory_order_relaxed); }
  bool Traced(int s) const { return trace && s % 2 == 1; }
};

// The generated site as the benchmark knows it: every document by
// path, and the names of the servers links may point at.
class SiteOracle {
 public:
  SiteOracle(const workload::SiteSpec& site,
             std::vector<http::ServerAddress> servers);

  // The site document a request target names, plain or in the
  // ~migrate form (paper §3.4); nullptr when it names none.
  const storage::Document* Find(std::string_view target) const;

  // True when `url` is on a group server and names a site document.
  bool Resolves(const http::Url& url) const;

 private:
  std::unordered_map<std::string, const storage::Document*> by_path_;
  std::unordered_set<http::ServerAddress, http::ServerAddressHash>
      servers_;
};

// What the clients saw over one slice of a window (or a sum of slices).
struct ClientTally {
  uint64_t attempted = 0;  // exchanges begun (a connect was tried)
  uint64_t good = 0;       // 200s and 301s that passed every check
  // Responses by status, as the servers' registries should count them.
  uint64_t status_200 = 0;
  uint64_t status_301 = 0;
  uint64_t status_404 = 0;
  uint64_t status_503 = 0;
  uint64_t status_other = 0;
  uint64_t transport_errors = 0;
  uint64_t violations = 0;     // exchanges that failed an output check
  uint64_t body_bytes = 0;     // bytes of good 200 bodies
  uint64_t bytes_checked = 0;  // 200 bodies compared byte for byte
  uint64_t links_checked = 0;
  // Durations in nanoseconds.  Connect -> last byte, every exchange
  // that got a response:
  std::vector<int64_t> latency_ns;
  // Traced slices only:
  std::vector<int64_t> connect_ns;
  std::vector<int64_t> ttfb_ns;      // request written -> first byte
  std::vector<int64_t> transfer_ns;  // first byte -> last byte
  int64_t client_parse_ns = 0;       // framer + ParseResponse
  // First few failures and check violations, for the report.
  std::vector<std::string> problems;

  uint64_t failed() const { return attempted - good; }
  uint64_t responses() const {
    return status_200 + status_301 + status_404 + status_503 +
           status_other;
  }
  void Merge(const ClientTally& other);
  void Note(std::string problem);
};

// workload::Fetcher over net/socket_util: one fresh loopback connection
// per exchange (HTTP/1.0), names resolved by the group's TcpNetwork.
// Every response is checked against the oracle:
//  - the status is 200, 301, 404 or 503; a 404 must name a site
//    document and counts as a failure, anything else is a violation;
//  - a non-HTML 200 body has the site document's length, and on a
//    seeded sample its exact bytes;
//  - every link in a served HTML page resolves to a site document (or
//    its ~migrate name) on a group server, as does every Location.
//    Pages are re-served byte-identical until regenerated, so each
//    distinct (page URL, body) is link-checked once.
// Exchanges are booked to tallies[slice]; traced slices also split the
// exchange into spans.  Once `stop` is set, Fetch refuses new exchanges
// (Unavailable).
class TimedFetcher : public workload::Fetcher {
 public:
  TimedFetcher(net::TcpNetwork* network, const SiteOracle* oracle,
               uint64_t sample_seed, const std::atomic<bool>* stop,
               SpanLog* spans);

  Result<http::Response> Fetch(const http::Url& url) override;

  // Books later exchanges into `tallies` (one per slice of `clock`).
  void Attach(const SliceClock* clock, std::vector<ClientTally>* tallies) {
    clock_ = clock;
    tallies_ = tallies;
  }

 private:
  void Check(const http::Url& url, const http::Response& response,
             ClientTally& tally);
  bool LinksResolve(const http::Url& url, const std::string& html,
                    ClientTally& tally);

  net::TcpNetwork* network_;
  const SiteOracle* oracle_;
  Rng sample_rng_;
  const std::atomic<bool>* stop_;
  SpanLog* spans_;
  const SliceClock* clock_ = nullptr;
  std::vector<ClientTally>* tallies_ = nullptr;
  // Hashes of (page URL, body) pairs whose links all resolved.
  std::unordered_set<uint64_t> checked_pages_;
};

// The q-quantile (q in [0, 1]) of exact samples, smoothed: the mean of
// the samples ranked within max(0.005, sqrt(q(1-q)/n)) of q, the
// latter being the standard error of the quantile's rank.  A single
// order statistic is noisy where the distribution has a gap;
// sequoia_bulk's exchanges are half index page and half raster, so its
// median falls between the two.  0 when empty.
double Percentile(std::vector<int64_t> samples, double q);

}  // namespace dcws::perfbench

#endif  // DCWS_PERFBENCH_PROBE_H_
