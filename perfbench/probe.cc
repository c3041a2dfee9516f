#include "perfbench/probe.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "src/http/wire.h"
#include "src/migrate/naming.h"
#include "src/net/socket_util.h"

namespace dcws::perfbench {

namespace {

// Problems kept verbatim per tally; the rest are only counted.
constexpr size_t kMaxProblems = 8;
// Share of non-HTML 200 bodies compared byte for byte.
constexpr double kByteCheckShare = 1.0 / 8;
// Least half-width, in quantile, of the band Percentile averages over.
constexpr double kPercentileBand = 0.005;

}  // namespace

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuMicros() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000 + ts.tv_nsec / 1000;
}

// ------------------------------------------------------------ SiteOracle

SiteOracle::SiteOracle(const workload::SiteSpec& site,
                       std::vector<http::ServerAddress> servers)
    : servers_(servers.begin(), servers.end()) {
  for (const storage::Document& doc : site.documents) {
    by_path_[doc.path] = &doc;
  }
}

const storage::Document* SiteOracle::Find(std::string_view target) const {
  std::string path(target);
  if (migrate::IsMigratedTarget(path)) {
    auto decoded = migrate::DecodeMigratedTarget(path);
    if (!decoded.ok() || !servers_.contains(decoded->home)) return nullptr;
    path = decoded->doc_path;
  }
  auto it = by_path_.find(path);
  return it == by_path_.end() ? nullptr : it->second;
}

bool SiteOracle::Resolves(const http::Url& url) const {
  return servers_.contains(http::ServerAddress{url.host, url.port}) &&
         Find(url.path) != nullptr;
}

// ----------------------------------------------------------- ClientTally

void ClientTally::Merge(const ClientTally& other) {
  attempted += other.attempted;
  good += other.good;
  status_200 += other.status_200;
  status_301 += other.status_301;
  status_404 += other.status_404;
  status_503 += other.status_503;
  status_other += other.status_other;
  transport_errors += other.transport_errors;
  violations += other.violations;
  body_bytes += other.body_bytes;
  bytes_checked += other.bytes_checked;
  links_checked += other.links_checked;
  auto append = [](std::vector<int64_t>& to,
                   const std::vector<int64_t>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(latency_ns, other.latency_ns);
  append(connect_ns, other.connect_ns);
  append(ttfb_ns, other.ttfb_ns);
  append(transfer_ns, other.transfer_ns);
  client_parse_ns += other.client_parse_ns;
  for (const std::string& problem : other.problems) Note(problem);
}

void ClientTally::Note(std::string problem) {
  if (problems.size() < kMaxProblems &&
      std::find(problems.begin(), problems.end(), problem) ==
          problems.end()) {
    problems.push_back(std::move(problem));
  }
}

// ---------------------------------------------------------- TimedFetcher

TimedFetcher::TimedFetcher(net::TcpNetwork* network,
                           const SiteOracle* oracle, uint64_t sample_seed,
                           const std::atomic<bool>* stop, SpanLog* spans)
    : network_(network),
      oracle_(oracle),
      sample_rng_(sample_seed),
      stop_(stop),
      spans_(spans) {}

Result<http::Response> TimedFetcher::Fetch(const http::Url& url) {
  if (stop_->load(std::memory_order_relaxed)) {
    return Status::Unavailable("window closed");
  }
  http::Request request;
  request.method = "GET";
  request.target = url.path;
  request.headers.Set(std::string(http::kHeaderHost), url.Authority());
  const std::string wire = request.Serialize();
  const uint16_t port = network_->Resolve({url.host, url.port});
  const int slice = clock_->Now();
  const bool traced = clock_->Traced(slice);
  ClientTally& tally = (*tallies_)[slice];
  tally.attempted += 1;

  auto transport_error = [&](const Status& status) {
    tally.transport_errors += 1;
    tally.Note("transport error for " + url.ToString() + ": " +
               status.ToString());
    return status;
  };
  if (port == 0) {
    return transport_error(Status::NotFound("unknown server " +
                                            url.Authority()));
  }

  // Untraced exchanges read the clock twice; traced ones split the
  // exchange at every layer boundary.
  const int64_t start = NowNanos();
  auto conn = net::ConnectLoopback(port);
  if (!conn.ok()) return transport_error(conn.status());
  const int64_t connected = traced ? NowNanos() : 0;
  if (Status s = net::WriteAll(*conn, wire); !s.ok()) {
    return transport_error(s);
  }
  const int64_t sent = traced ? NowNanos() : 0;
  int64_t first_byte = 0;
  int64_t framing_ns = 0;
  http::MessageFramer framer;
  std::optional<std::string> message;
  while (!message.has_value()) {
    auto chunk = net::ReadSome(*conn);
    if (!chunk.ok()) return transport_error(chunk.status());
    if (chunk->empty()) {
      return transport_error(
          Status::Unavailable("connection closed mid-response"));
    }
    const int64_t frame_start = traced ? NowNanos() : 0;
    if (first_byte == 0) first_byte = frame_start;
    framer.Feed(*chunk);
    if (framer.has_error()) return transport_error(framer.error());
    message = framer.NextMessage();
    if (traced) framing_ns += NowNanos() - frame_start;
  }
  const int64_t last_byte = NowNanos();
  auto response = http::ParseResponse(*message);
  if (!response.ok()) return transport_error(response.status());
  tally.latency_ns.push_back(last_byte - start);

  if (traced) {
    const int64_t parsed = NowNanos();
    const int64_t parse_ns = framing_ns + (parsed - last_byte);
    tally.connect_ns.push_back(connected - start);
    tally.ttfb_ns.push_back(first_byte - sent);
    tally.transfer_ns.push_back(last_byte - first_byte);
    tally.client_parse_ns += parse_ns;
    const uint64_t root = spans_->NewId();
    spans_->Add(root, 0, root, "exchange", start, parsed);
    spans_->Add(spans_->NewId(), root, root, "connect", start, connected);
    spans_->Add(spans_->NewId(), root, root, "send", connected, sent);
    spans_->Add(spans_->NewId(), root, root, "first_byte", sent,
                first_byte);
    spans_->Add(spans_->NewId(), root, root, "last_byte", first_byte,
                last_byte);
    // Framing interleaves with the reads; its span sits at the end of
    // the exchange with the summed duration.
    spans_->Add(spans_->NewId(), root, root, "client_parse",
                parsed - parse_ns, parsed);
  }
  Check(url, *response, tally);
  return response;
}

bool TimedFetcher::LinksResolve(const http::Url& url,
                                const std::string& html,
                                ClientTally& tally) {
  const uint64_t key = std::hash<std::string_view>{}(html) * 31 +
                       std::hash<std::string>{}(url.ToString());
  if (checked_pages_.contains(key)) return true;
  workload::PageLinks links = workload::ClassifyLinks(html, url);
  for (const auto* group : {&links.hyperlinks, &links.images}) {
    for (const http::Url& link : *group) {
      tally.links_checked += 1;
      if (!oracle_->Resolves(link)) {
        tally.Note("dangling link " + link.ToString() + " in " +
                   url.ToString());
        return false;
      }
    }
  }
  checked_pages_.insert(key);
  return true;
}

void TimedFetcher::Check(const http::Url& url,
                         const http::Response& response,
                         ClientTally& tally) {
  const storage::Document* doc = oracle_->Find(url.path);
  auto violation = [&](const std::string& what) {
    tally.violations += 1;
    tally.Note("VIOLATION " + url.ToString() + ": " + what);
  };
  if (!oracle_->Resolves(url)) {
    violation("request for a target outside the site");
    return;
  }
  switch (response.status_code) {
    case 200: {
      tally.status_200 += 1;
      if (doc->is_html()) {
        // Served pages are rewritten, so their bytes differ from the
        // source; their links must still lead into the site.
        if (!LinksResolve(url, response.body, tally)) {
          violation("page links outside the site");
          return;
        }
      } else {
        if (response.body.size() != doc->content.size()) {
          violation("body is " + std::to_string(response.body.size()) +
                    " bytes, site has " +
                    std::to_string(doc->content.size()));
          return;
        }
        if (sample_rng_.NextBool(kByteCheckShare)) {
          tally.bytes_checked += 1;
          if (std::memcmp(response.body.data(), doc->content.data(),
                          doc->content.size()) != 0) {
            violation("body bytes differ from the site's");
            return;
          }
        }
      }
      tally.good += 1;
      tally.body_bytes += response.body.size();
      return;
    }
    case 301: {
      tally.status_301 += 1;
      auto location = response.headers.Get(http::kHeaderLocation);
      if (!location.has_value()) {
        violation("301 without Location");
        return;
      }
      auto target = http::Url::Parse(std::string(*location));
      if (!target.ok() || !oracle_->Resolves(*target)) {
        violation("301 to " + std::string(*location));
        return;
      }
      tally.good += 1;
      return;
    }
    case 404:
      // Resolves() passed, so the site has this document: a failure the
      // servers must not produce, counted and reported, not a violation.
      tally.status_404 += 1;
      tally.Note("404 for site document " + url.ToString());
      return;
    case 503:
      tally.status_503 += 1;
      return;
    default:
      tally.status_other += 1;
      violation("status " + std::to_string(response.status_code));
      return;
  }
}

double Percentile(std::vector<int64_t> samples, double q) {
  if (samples.empty()) return 0;
  const double n = static_cast<double>(samples.size());
  // At least one standard error of the sample quantile's rank.
  const double band = std::max(kPercentileBand, std::sqrt(q * (1 - q) / n));
  auto rank = [&](double at) {
    const auto r = static_cast<size_t>(std::ceil(std::clamp(at, 0.0, 1.0) * n));
    return std::clamp<size_t>(r, 1, samples.size()) - 1;
  };
  const size_t lo = rank(q - band);
  const size_t hi = rank(q + band);
  std::sort(samples.begin(), samples.end());
  double sum = 0;
  for (size_t i = lo; i <= hi; ++i) sum += static_cast<double>(samples[i]);
  return sum / static_cast<double>(hi - lo + 1);
}

}  // namespace dcws::perfbench
