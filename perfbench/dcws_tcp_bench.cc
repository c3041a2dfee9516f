// dcws_tcp_bench: the live-TCP DCWS benchmark program.
//
//   dcws_tcp_bench --workload NAME --seed N --seconds S --trace 0|1
//
// Starts a 4-server net::tcp group on loopback inside this process,
// seeds the home server with a generated copy of one of the paper's
// datasets, settles
// document placement with warm-up traffic under accelerated migration
// pacing, restores the paper's Table-1 pacing and then drives one
// workload for S seconds: 2 closed-loop Algorithm-2 browsers
// (workload::BrowsingClient, one thread and one connection at a time
// each) and, for mapug_update, one open-loop author calling
// Server::PutDocument at a fixed rate.  Every response is checked
// against the site (probe.h) and the clients' outcome counts are
// reconciled with the servers' metric registries.
//
// The window is cut into kSlices equal slices.  --trace 0 reports the
// end-to-end metrics as medians over the slices.  --trace 1 traces the
// odd slices only, reports the per-layer metrics from them and the
// tracing overhead against the untraced even slices, and writes the
// in-memory spans to .bench_out/ at exit.  Human-readable lines come
// first; the last line of stdout is one JSON object
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit code is 1 when an output check failed, 2 on bad arguments.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/probe.h"
#include "src/core/server.h"
#include "src/net/tcp.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/workload/site.h"

namespace dcws::perfbench {
namespace {

constexpr int kServers = 4;
constexpr int kBrowsers = 2;
// Full set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
// Slices per measurement window; end-to-end metrics are slice medians.
constexpr int kSlices = 20;

// Placement warm-up: warm-up traffic under accelerated migration pacing
// for a fixed budget of statistics intervals (the home commits at most
// one migration per interval), then Table-1 pacing again, which allows
// at most one migration per home per 10 s inside the timed window.  A
// budget, not quiescence: under accelerated pacing the LOD home keeps
// migrating until almost every document has moved (~14 s).
constexpr MicroTime kWarmupStatsInterval = 25 * kMicrosPerMilli;
constexpr MicroTime kWarmupCoopAcceptInterval = 75 * kMicrosPerMilli;
constexpr int64_t kWarmupIntervals = 80;

// The site is generated from a fixed dataset seed, the one the
// paper-figure benches use: like the paper's real datasets, the site
// stays put while the run seed varies the traffic (the browsers' walks,
// the author's edits, the byte-check sample).  Per-seed sites moved LOD
// throughput by ~12% between seeds through topology alone.
constexpr uint64_t kSiteSeed = 42;

struct WorkloadSpec {
  const char* name;
  workload::Dataset dataset;
  double puts_per_second;  // open-loop author; 0 = no author
};

constexpr WorkloadSpec kWorkloads[] = {
    {"lod_browse", workload::Dataset::kLod, 0},
    {"sequoia_bulk", workload::Dataset::kSequoia, 0},
    {"mapug_update", workload::Dataset::kMapug, 100},
};

// Independent streams derived from the run seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  return rng.NextUint64();
}

core::ServerParams GroupParams() {
  core::ServerParams params;  // the defaults are Table 1
  params.selection.hit_threshold = 4;  // as the paper-figure benches use
  return params;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Micros(double ns) { return ns / 1e3; }
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

int64_t ProcessCpuMicros() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto us = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1'000'000 + tv.tv_usec;
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

double PeakRssMB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

// Shortest text that reads back as the same double.
std::string Number(double value) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

void SleepUntilNanos(int64_t deadline) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(deadline)));
}

double CounterValue(const std::vector<obs::MetricSnapshot>& snapshot,
                    std::string_view name, const obs::Labels& labels = {}) {
  const obs::MetricSnapshot* metric = obs::FindMetric(snapshot, name, labels);
  return metric == nullptr ? 0 : metric->value;
}

// ------------------------------------------------------------ the group

// One live DCWS group: four servers on loopback TCP, the site they
// serve and the oracle that checks responses.
class Group {
 public:
  struct SetupTimes {
    double site_build_s = 0;
    double load_site_s = 0;
    double start_s = 0;
    double placement_s = 0;
    uint64_t migrations = 0;  // committed during the warm-up
    double total() const {
      return site_build_s + load_site_s + start_s + placement_s;
    }
  };

  // Builds, starts and settles a group.  Warm-up exchanges are checked
  // into `warmup`; stage spans go to `spans` unless it is null.
  static Result<std::unique_ptr<Group>> Start(const WorkloadSpec& spec,
                                              uint64_t seed, SpanLog* spans,
                                              ClientTally* warmup,
                                              SetupTimes* times);

  ~Group() { network_.StopAll(); }
  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  core::Server& home() { return *servers_[0]; }
  net::TcpNetwork& network() { return network_; }
  const SiteOracle& oracle() const { return *oracle_; }
  const workload::SiteSpec& site() const { return site_; }
  std::vector<http::Url> EntryUrls() const;

  std::vector<obs::MetricSnapshot> MergedMetrics() const;
  uint64_t Accepted() const;
  uint64_t Dropped() const;
  void SetPacing(MicroTime stats, MicroTime coop_accept);

 private:
  Group() = default;

  WallClock clock_;
  workload::SiteSpec site_;
  std::unique_ptr<SiteOracle> oracle_;
  std::vector<std::unique_ptr<core::Server>> servers_;
  // Declared after servers_: destroyed first, its hosts reference them.
  net::TcpNetwork network_;
  std::vector<net::TcpServerHost*> hosts_;
};

std::vector<http::Url> Group::EntryUrls() const {
  std::vector<http::Url> urls;
  const http::ServerAddress& home = servers_[0]->address();
  for (const std::string& entry : site_.entry_points) {
    urls.push_back(http::Url{home.host, home.port, entry});
  }
  return urls;
}

std::vector<obs::MetricSnapshot> Group::MergedMetrics() const {
  std::vector<std::vector<obs::MetricSnapshot>> per_server;
  for (const auto& server : servers_) {
    per_server.push_back(server->metrics().Snapshot());
  }
  return obs::MergeSnapshots(per_server);
}

uint64_t Group::Accepted() const {
  uint64_t total = 0;
  for (const net::TcpServerHost* host : hosts_) total += host->accepted();
  return total;
}

uint64_t Group::Dropped() const {
  uint64_t total = 0;
  for (const net::TcpServerHost* host : hosts_) total += host->dropped();
  return total;
}

void Group::SetPacing(MicroTime stats, MicroTime coop_accept) {
  for (auto& server : servers_) server->SetPacing(stats, stats, coop_accept);
}

// ------------------------------------------------------------ generators

// One closed-loop Algorithm-2 browser: its own thread, one connection
// at a time.  Each window runs it on a fresh thread until `stop` is set.
class Browser {
 public:
  Browser(Group* group, uint64_t seed, uint32_t index,
          const std::atomic<bool>* stop)
      : stop_(stop),
        spans_(index),
        fetcher_(&group->network(), &group->oracle(),
                 DeriveSeed(seed, 1000 + index), stop, &spans_),
        client_(group->EntryUrls(), seed, MakeConfig(stop)) {}
  ~Browser() { Join(); }
  Browser(const Browser&) = delete;
  Browser& operator=(const Browser&) = delete;

  void Start(const SliceClock* clock, std::vector<ClientTally>* tallies) {
    fetcher_.Attach(clock, tallies);
    thread_ = std::thread([this] {
      const int64_t cpu_start = ThreadCpuMicros();
      while (!stop_->load(std::memory_order_relaxed)) {
        client_.RunWalk(fetcher_);
      }
      cpu_us_ += ThreadCpuMicros() - cpu_start;
    });
  }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  const workload::BrowseStats& stats() const { return client_.stats(); }
  int64_t cpu_us() const { return cpu_us_; }
  const SpanLog& spans() const { return spans_; }

 private:
  // 503 back-off really sleeps (closed loop), in steps so a closing
  // window is not held up.
  static workload::BrowseConfig MakeConfig(const std::atomic<bool>* stop) {
    workload::BrowseConfig config;
    config.sleeper = [stop](MicroTime micros) {
      const int64_t until = NowNanos() + micros * 1000;
      while (!stop->load(std::memory_order_relaxed) && NowNanos() < until) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    };
    return config;
  }

  const std::atomic<bool>* stop_;
  SpanLog spans_;
  TimedFetcher fetcher_;
  workload::BrowsingClient client_;
  int64_t cpu_us_ = 0;
  std::thread thread_;
};

// Open-loop author: PutDocument on seeded-random MAPUG message pages at
// a fixed rate on the home server.  Each edit appends a paragraph, so
// the page's links stay as they were; the page turns dirty and its
// next read regenerates it.
class Author {
 public:
  struct Tally {
    uint64_t puts = 0;
    uint64_t failures = 0;
    std::vector<int64_t> put_ns;  // the PutDocument call
    std::vector<int64_t> lag_ns;  // call start minus its due time
    std::vector<std::string> problems;

    void Merge(const Tally& other) {
      puts += other.puts;
      failures += other.failures;
      put_ns.insert(put_ns.end(), other.put_ns.begin(), other.put_ns.end());
      lag_ns.insert(lag_ns.end(), other.lag_ns.begin(), other.lag_ns.end());
      for (const std::string& p : other.problems) Note(p);
    }
    void Note(std::string problem) {
      if (problems.size() < 8) problems.push_back(std::move(problem));
    }
  };

  Author(Group* group, double rate, uint64_t seed)
      : group_(group),
        period_ns_(static_cast<int64_t>(1e9 / rate)),
        rng_(seed),
        spans_(3) {
    for (const storage::Document& doc : group->site().documents) {
      if (doc.is_html() && doc.path.starts_with("/archive/msg")) {
        pages_.push_back(&doc);
      }
    }
  }
  ~Author() { Join(); }
  Author(const Author&) = delete;
  Author& operator=(const Author&) = delete;

  void Start(const std::atomic<bool>* stop, const SliceClock* clock,
             std::vector<Tally>* tallies) {
    thread_ = std::thread(
        [this, stop, clock, tallies] { Loop(*stop, *clock, *tallies); });
  }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }
  const SpanLog& spans() const { return spans_; }

 private:
  void Loop(const std::atomic<bool>& stop, const SliceClock& clock,
            std::vector<Tally>& tallies) {
    int64_t due = NowNanos();
    while (!stop.load(std::memory_order_relaxed)) {
      SleepUntilNanos(due);
      if (stop.load(std::memory_order_relaxed)) break;
      const storage::Document& page = *pages_[rng_.NextBelow(pages_.size())];
      storage::Document edit = page;
      edit.content += "<p>edit " + std::to_string(++edits_) + "</p>\n";
      const int slice = clock.Now();
      Tally& tally = tallies[slice];
      const int64_t start = NowNanos();
      Status status = group_->home().PutDocument(std::move(edit));
      const int64_t end = NowNanos();
      tally.puts += 1;
      tally.put_ns.push_back(end - start);
      tally.lag_ns.push_back(start - due);
      if (!status.ok()) {
        tally.failures += 1;
        tally.Note("PutDocument " + page.path + ": " + status.ToString());
      }
      if (clock.Traced(slice)) {
        const uint64_t id = spans_.NewId();
        spans_.Add(id, 0, id, "author.put", start, end);
      }
      due += period_ns_;
    }
  }

  Group* group_;
  int64_t period_ns_;
  Rng rng_;
  SpanLog spans_;
  std::vector<const storage::Document*> pages_;
  uint64_t edits_ = 0;
  std::thread thread_;
};

Result<std::unique_ptr<Group>> Group::Start(const WorkloadSpec& spec,
                                            uint64_t seed, SpanLog* spans,
                                            ClientTally* warmup,
                                            SetupTimes* times) {
  std::unique_ptr<Group> group(new Group());
  const uint64_t setup_trace = spans != nullptr ? spans->NewId() : 0;
  const int64_t setup_start = NowNanos();
  auto stage = [&](const char* name, double* seconds, auto&& body) {
    const int64_t start = NowNanos();
    Status status = body();
    const int64_t end = NowNanos();
    *seconds = Seconds(end - start);
    if (spans != nullptr) {
      spans->Add(spans->NewId(), setup_trace, setup_trace, name, start, end);
    }
    return status;
  };

  (void)stage("setup.site_build", &times->site_build_s, [&] {
    Rng rng(kSiteSeed);
    group->site_ = workload::BuildDataset(spec.dataset, rng);
    return Status::Ok();
  });
  std::vector<http::ServerAddress> names;
  for (int i = 0; i < kServers; ++i) {
    names.push_back(http::ServerAddress{"dcws" + std::to_string(i + 1),
                                        static_cast<uint16_t>(8001 + i)});
  }
  // The oracle is the benchmark's own; it is built outside the stages.
  group->oracle_ = std::make_unique<SiteOracle>(group->site_, names);

  Status loaded = stage("setup.load_site", &times->load_site_s, [&] {
    for (const http::ServerAddress& name : names) {
      group->servers_.push_back(std::make_unique<core::Server>(
          name, GroupParams(), &group->clock_));
    }
    for (auto& a : group->servers_) {
      for (auto& b : group->servers_) {
        if (a != b) a->RegisterPeer(b->address());
      }
    }
    return group->home().LoadSite(group->site_.documents,
                                  group->site_.entry_points);
  });
  if (!loaded.ok()) return loaded;

  Status started = stage("setup.start", &times->start_s, [&] {
    for (auto& server : group->servers_) {
      auto host = group->network_.AddServer(server.get());
      if (!host.ok()) return host.status();
      group->hosts_.push_back(*host);
    }
    return Status::Ok();
  });
  if (!started.ok()) return started;

  (void)stage("setup.placement", &times->placement_s, [&] {
    auto migrations = [&] {
      return CounterValue(group->MergedMetrics(), "dcws_migrations_total",
                          {{"direction", "out"}});
    };
    const double before = migrations();
    std::atomic<bool> stop{false};
    SliceClock clock;  // one untraced slice
    std::vector<std::vector<ClientTally>> tallies(
        kBrowsers, std::vector<ClientTally>(1));
    std::vector<std::unique_ptr<Browser>> browsers;
    for (int i = 0; i < kBrowsers; ++i) {
      browsers.push_back(std::make_unique<Browser>(
          group.get(), DeriveSeed(seed, 100 + i), 10 + i, &stop));
    }
    group->SetPacing(kWarmupStatsInterval, kWarmupCoopAcceptInterval);
    const int64_t start = NowNanos();
    for (int i = 0; i < kBrowsers; ++i) {
      browsers[i]->Start(&clock, &tallies[i]);
    }
    SleepUntilNanos(start + kWarmupIntervals * kWarmupStatsInterval * 1000);
    stop.store(true);
    for (auto& browser : browsers) browser->Join();
    const core::ServerParams table1 = GroupParams();
    group->SetPacing(table1.stats_interval, table1.coop_accept_interval);
    times->migrations = static_cast<uint64_t>(migrations() - before);
    for (const auto& per_browser : tallies) warmup->Merge(per_browser[0]);
    return Status::Ok();
  });
  if (spans != nullptr) {
    spans->Add(setup_trace, 0, setup_trace, "setup", setup_start, NowNanos());
  }
  return group;
}

// ----------------------------------------------------------- measurement

// What one slice (or a sum of slices) observed.
struct Slice {
  double seconds = 0;
  ClientTally client;
  Author::Tally author;
  std::vector<obs::MetricSnapshot> registry;  // merged-registry delta
  uint64_t accepted = 0;  // TcpServerHost::accepted() delta
  uint64_t dropped = 0;   // TcpServerHost::dropped() delta
  int64_t process_cpu_us = 0;

  void Merge(const Slice& other) {
    seconds += other.seconds;
    client.Merge(other.client);
    author.Merge(other.author);
    registry = obs::MergeSnapshots({registry, other.registry});
    accepted += other.accepted;
    dropped += other.dropped;
    process_cpu_us += other.process_cpu_us;
  }

  double Rate(double count) const { return Ratio(count, seconds); }
  double Count(std::string_view name, const obs::Labels& labels = {}) const {
    return CounterValue(registry, name, labels);
  }
  obs::Histogram::Snapshot Hist(std::string_view name,
                                const obs::Labels& labels = {}) const {
    const obs::MetricSnapshot* m = obs::FindMetric(registry, name, labels);
    return m == nullptr ? obs::Histogram::Snapshot{} : m->hist;
  }
  double HistSum(std::string_view name, const obs::Labels& labels = {}) const {
    return static_cast<double>(Hist(name, labels).sum);
  }
  double Phase(const char* phase) const {
    return HistSum("dcws_phase_latency_us", {{"phase", phase}});
  }
};

// Per-instrument change between two merged registry snapshots:
// counters and histograms subtract, gauges keep the later reading.
std::vector<obs::MetricSnapshot> RegistryDelta(
    const std::vector<obs::MetricSnapshot>& before,
    std::vector<obs::MetricSnapshot> after) {
  for (obs::MetricSnapshot& metric : after) {
    const obs::MetricSnapshot* old =
        obs::FindMetric(before, metric.name, metric.labels);
    if (old == nullptr) continue;
    if (metric.type == obs::MetricType::kCounter) {
      metric.value -= old->value;
    } else if (metric.type == obs::MetricType::kHistogram) {
      metric.hist.count -= old->hist.count;
      metric.hist.sum -= old->hist.sum;
      for (int i = 0; i < obs::Histogram::kBucketCount; ++i) {
        metric.hist.buckets[i] -= old->hist.buckets[i];
      }
    }
  }
  return after;
}

bool AnySlice(int) { return true; }
bool TracedSlice(int i) { return i % 2 == 1; }
bool UntracedSlice(int i) { return i % 2 == 0; }

struct Measurement {
  std::vector<Slice> slices;
  // Whole-window generator figures.
  int64_t generator_cpu_us = 0;
  uint64_t walks = 0;
  uint64_t cache_hits = 0;
  uint64_t fetches = 0;  // BrowsingClient requests (cache misses)
  // Read when the window closes, before the slices' samples are merged
  // and copied for the report.
  double peak_rss_mb = 0;

  Slice Sum(bool (*keep)(int)) const {
    Slice sum;
    for (int i = 0; i < static_cast<int>(slices.size()); ++i) {
      if (keep(i)) sum.Merge(slices[i]);
    }
    return sum;
  }
};

// The measured part of a run: browsers (and the author) driven without
// pause through one window of kSlices slices.
class Runner {
 public:
  Runner(Group* group, const WorkloadSpec& spec, uint64_t seed)
      : group_(group) {
    for (int i = 0; i < kBrowsers; ++i) {
      browsers_.push_back(std::make_unique<Browser>(
          group, DeriveSeed(seed, 200 + i), 20 + i, &stop_));
    }
    if (spec.puts_per_second > 0) {
      author_ = std::make_unique<Author>(group, spec.puts_per_second,
                                         DeriveSeed(seed, 300));
    }
  }

  std::vector<const SpanLog*> span_logs() const {
    std::vector<const SpanLog*> logs;
    for (const auto& browser : browsers_) logs.push_back(&browser->spans());
    if (author_) logs.push_back(&author_->spans());
    return logs;
  }

  Measurement Measure(double seconds, bool trace) {
    Measurement m;
    m.slices.resize(kSlices);
    SliceClock clock;
    clock.trace = trace;
    std::vector<std::vector<ClientTally>> tallies(
        kBrowsers, std::vector<ClientTally>(kSlices));
    std::vector<Author::Tally> author_tallies(kSlices);
    std::vector<workload::BrowseStats> stats_before;
    std::vector<int64_t> cpu_before;
    for (auto& browser : browsers_) {
      stats_before.push_back(browser->stats());
      cpu_before.push_back(browser->cpu_us());
    }

    // A boundary reading of everything the slices difference.
    struct Mark {
      int64_t ns;
      std::vector<obs::MetricSnapshot> registry;
      uint64_t accepted;
      uint64_t dropped;
      int64_t cpu_us;
    };
    auto mark = [&] {
      return Mark{NowNanos(), group_->MergedMetrics(), group_->Accepted(),
                  group_->Dropped(), ProcessCpuMicros()};
    };
    Mark prev = mark();
    const int64_t start = prev.ns;
    const int64_t slice_ns = static_cast<int64_t>(seconds * 1e9 / kSlices);
    stop_.store(false);
    if (author_) author_->Start(&stop_, &clock, &author_tallies);
    for (int i = 0; i < kBrowsers; ++i) {
      browsers_[i]->Start(&clock, &tallies[i]);
    }
    for (int k = 0; k < kSlices; ++k) {
      SleepUntilNanos(start + (k + 1) * slice_ns);
      if (k + 1 < kSlices) {
        clock.slice.store(k + 1, std::memory_order_relaxed);
      } else {
        // The last slice ends once every in-flight operation has.
        stop_.store(true);
        for (auto& browser : browsers_) browser->Join();
        if (author_) author_->Join();
      }
      Mark next = mark();
      Slice& slice = m.slices[k];
      slice.seconds = Seconds(next.ns - prev.ns);
      slice.registry = RegistryDelta(prev.registry, next.registry);
      slice.accepted = next.accepted - prev.accepted;
      slice.dropped = next.dropped - prev.dropped;
      slice.process_cpu_us = next.cpu_us - prev.cpu_us;
      prev = std::move(next);
    }
    m.peak_rss_mb = PeakRssMB();
    for (int k = 0; k < kSlices; ++k) {
      for (int i = 0; i < kBrowsers; ++i) {
        m.slices[k].client.Merge(tallies[i][k]);
      }
      m.slices[k].author = std::move(author_tallies[k]);
    }
    for (size_t i = 0; i < browsers_.size(); ++i) {
      const workload::BrowseStats& now = browsers_[i]->stats();
      m.walks += now.walks - stats_before[i].walks;
      m.cache_hits += now.cache_hits - stats_before[i].cache_hits;
      m.fetches += now.requests - stats_before[i].requests;
      m.generator_cpu_us += browsers_[i]->cpu_us() - cpu_before[i];
    }
    return m;
  }

 private:
  Group* group_;
  std::atomic<bool> stop_{true};
  std::vector<std::unique_ptr<Browser>> browsers_;
  std::unique_ptr<Author> author_;
};

// -------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Throughput(const Slice& s) {
  return s.Rate(static_cast<double>(s.client.good));
}

// The median of one per-slice figure over the chosen slices: a burst of
// interference on the shared machine moves one or two slices, not the
// run's figure.
template <typename Figure>
double SliceMedian(const Measurement& m, bool (*keep)(int), Figure figure) {
  std::vector<double> values;
  for (int i = 0; i < static_cast<int>(m.slices.size()); ++i) {
    if (keep(i)) values.push_back(figure(m.slices[i]));
  }
  return Median(values);
}

// Client latency per exchange, connect to last byte: the median over
// the chosen slices of each slice's q-quantile.
double ClientLatencyUs(const Measurement& m, bool (*keep)(int), double q) {
  return SliceMedian(m, keep, [q](const Slice& s) {
    return Micros(Percentile(s.client.latency_ns, q));
  });
}

std::vector<Metric> EndToEnd(const Measurement& m, bool (*keep)(int),
                             double setup_s) {
  return {
      {"throughput_rps", SliceMedian(m, keep, Throughput), "1/s"},
      {"goodput_MBps",
       SliceMedian(m, keep,
                   [](const Slice& s) {
                     return s.Rate(static_cast<double>(s.client.body_bytes)) /
                            1e6;
                   }),
       "MB/s"},
      {"cpu_us_per_request",
       SliceMedian(m, keep,
                   [](const Slice& s) {
                     return Ratio(static_cast<double>(s.process_cpu_us),
                                  static_cast<double>(s.client.responses()));
                   }),
       "us"},
      {"peak_rss_MB", m.peak_rss_mb, "MB"},
      {"setup_s", setup_s, "s"},
  };
}

std::vector<Metric> PerLayer(const Measurement& m,
                             const std::vector<Group::SetupTimes>& setups) {
  const Slice t = m.Sum(TracedSlice);
  const ClientTally& c = t.client;
  const obs::Histogram::Snapshot server =
      t.Hist("dcws_request_latency_us", {{"kind", "client"}});
  const double ttfb_p50 = Micros(Percentile(c.ttfb_ns, 0.50));
  auto outcome = [&](const char* o) {
    return t.Count("dcws_requests_total", {{"outcome", o}});
  };
  auto setup_median = [&](auto field) {
    std::vector<double> values;
    for (const Group::SetupTimes& s : setups) {
      values.push_back(static_cast<double>(s.*field));
    }
    return Median(values);
  };
  const double regenerations = t.Count("dcws_regenerations_total");
  const double puts = static_cast<double>(t.author.puts);
  return {
      // End to end, but too host-sensitive to bound (see LAYERS.md):
      // untraced slice medians, as the end-to-end metrics are.
      {"latency_p50_us", ClientLatencyUs(m, UntracedSlice, 0.50), "us"},
      {"latency_p99_us", ClientLatencyUs(m, UntracedSlice, 0.99), "us"},
      {"client.error_rate",
       Ratio(static_cast<double>(c.failed()), static_cast<double>(c.attempted)),
       "ratio"},
      {"client.not_found", static_cast<double>(c.status_404), "count"},
      {"client.exchanges", static_cast<double>(c.attempted), "count"},
      {"net.connect_us.p50", Micros(Percentile(c.connect_ns, 0.50)), "us"},
      {"net.ttfb_us.p50", ttfb_p50, "us"},
      {"net.ttfb_us.p99", Micros(Percentile(c.ttfb_ns, 0.99)), "us"},
      {"net.transfer_us.p50", Micros(Percentile(c.transfer_ns, 0.50)), "us"},
      {"net.server_write_us.sum", t.HistSum("dcws_net_write_us"), "us"},
      {"net.unaccounted_us.p50", ttfb_p50 - server.Percentile(0.50), "us"},
      {"net.accept_wait_us.sum", t.Phase("queue_wait"), "us"},
      {"net.accepted", static_cast<double>(t.accepted), "count"},
      {"net.queue_drops", static_cast<double>(t.dropped), "count"},
      {"http.server_parse_us.sum", t.Phase("parse"), "us"},
      {"http.client_parse_us.sum",
       Micros(static_cast<double>(c.client_parse_ns)), "us"},
      {"core.request_latency_us.p50", server.Percentile(0.50), "us"},
      {"core.request_latency_us.p99", server.Percentile(0.99), "us"},
      {"core.local_us.sum", t.Phase("local"), "us"},
      {"core.migrated_us.sum", t.Phase("migrated"), "us"},
      {"core.other_us.sum", t.Phase("other"), "us"},
      {"core.outcome.served_local", outcome("served_local"), "count"},
      {"core.outcome.served_coop", outcome("served_coop"), "count"},
      {"core.outcome.redirect", outcome("redirect"), "count"},
      {"core.outcome.not_found", outcome("not_found"), "count"},
      {"core.outcome.overloaded", outcome("overloaded"), "count"},
      {"core.outcome.dropped", outcome("dropped"), "count"},
      {"graph.ldg_lookup_us.sum", t.Phase("ldg_lookup"), "us"},
      {"html.parse_us.sum", t.HistSum("dcws_html_parse_us"), "us"},
      {"html.reconstruct_us.sum", t.HistSum("dcws_html_reconstruct_us"),
       "us"},
      {"html.rewrite_us.sum", t.Phase("rewrite"), "us"},
      {"html.regenerations", regenerations, "count"},
      {"html.regenerations_per_update", Ratio(regenerations, puts), "ratio"},
      {"author.puts", puts, "count"},
      {"author.put_us.p50", Micros(Percentile(t.author.put_ns, 0.50)), "us"},
      {"author.put_us.p99", Micros(Percentile(t.author.put_ns, 0.99)), "us"},
      {"author.lag_ms", Percentile(t.author.lag_ns, 0.99) / 1e6, "ms"},
      {"migrate.migrations",
       t.Count("dcws_migrations_total", {{"direction", "out"}}), "count"},
      {"migrate.coop_fetches", t.Count("dcws_coop_fetches_total"), "count"},
      {"migrate.coop_fetch_us.sum", t.Phase("coop_fetch"), "us"},
      {"migrate.render_transfer_us.sum", t.Phase("render_transfer"), "us"},
      {"migrate.revocations", t.Count("dcws_revocations_total"), "count"},
      {"migrate.stale_serves", t.Count("dcws_stale_serves_total"), "count"},
      {"load.piggyback_absorbs", t.Count("dcws_piggyback_absorbs_total"),
       "count"},
      {"load.pings", t.Count("dcws_pings_total"), "count"},
      {"gen.cpu_us_per_request",
       Ratio(static_cast<double>(m.generator_cpu_us),
             static_cast<double>(m.Sum(AnySlice).client.attempted)),
       "us"},
      {"gen.cache_hit_ratio",
       Ratio(static_cast<double>(m.cache_hits),
             static_cast<double>(m.cache_hits + m.fetches)),
       "ratio"},
      {"gen.walks", static_cast<double>(m.walks), "count"},
      {"setup.site_build_s", setup_median(&Group::SetupTimes::site_build_s),
       "s"},
      {"setup.load_site_s", setup_median(&Group::SetupTimes::load_site_s),
       "s"},
      {"setup.start_s", setup_median(&Group::SetupTimes::start_s), "s"},
      {"setup.placement_s", setup_median(&Group::SetupTimes::placement_s),
       "s"},
      {"setup.migrations", setup_median(&Group::SetupTimes::migrations),
       "count"},
      {"obs.bench_trace_overhead",
       1 - Ratio(SliceMedian(m, TracedSlice, Throughput),
                 SliceMedian(m, UntracedSlice, Throughput)),
       "ratio"},
  };
}

// Client-observed statuses against the merged dcws_requests_total
// deltas over the whole window.  The browsers are joined before the
// closing snapshot, so the counts should agree exactly; the slack
// allows one in-flight exchange per browser at each window edge.
// Internal (server-to-server) 404s also land in not_found, so that one
// may only exceed the clients' count.
std::vector<std::string> Reconcile(const Slice& w) {
  const ClientTally& c = w.client;
  const double slack = 2.0 * kBrowsers;
  auto outcome = [&](const char* o) {
    return w.Count("dcws_requests_total", {{"outcome", o}});
  };
  struct Row {
    const char* what;
    double server;
    uint64_t client;
    bool server_may_exceed;
  };
  const Row rows[] = {
      {"200 vs served_local+served_coop",
       outcome("served_local") + outcome("served_coop"), c.status_200, false},
      {"301 vs redirect", outcome("redirect"), c.status_301, false},
      {"503 vs overloaded+dropped",
       outcome("overloaded") + outcome("dropped"), c.status_503, false},
      {"404 vs not_found", outcome("not_found"), c.status_404, true},
  };
  std::vector<std::string> mismatches;
  for (const Row& row : rows) {
    const double diff = row.server - static_cast<double>(row.client);
    if (diff < -slack || (diff > slack && !row.server_may_exceed)) {
      mismatches.push_back("reconcile " + std::string(row.what) +
                           ": servers " + Number(row.server) +
                           ", clients " + std::to_string(row.client));
    }
  }
  return mismatches;
}

// ---------------------------------------------------------------- output

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}}";
}

// Writes every recorded span as one JSON line; returns the span count.
size_t WriteSpans(const std::string& path,
                  const std::vector<const SpanLog*>& logs) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path, std::ios::trunc);
  size_t written = 0;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      out << "{\"trace\": " << span.trace << ", \"span\": " << span.id
          << ", \"parent\": " << span.parent << ", \"name\": \""
          << span.name << "\", \"start_us\": "
          << Number(Micros(static_cast<double>(span.start_ns)))
          << ", \"end_us\": "
          << Number(Micros(static_cast<double>(span.end_ns))) << "}\n";
      ++written;
    }
  }
  return written;
}

struct Args {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  bool have_trace = false;
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string_view value = argv[i + 1];
    uint64_t number = 0;
    auto [end, ec] =
        std::from_chars(value.data(), value.data() + value.size(), number);
    const bool numeric =
        ec == std::errc() && end == value.data() + value.size();
    if (flag == "--workload") {
      for (const WorkloadSpec& spec : kWorkloads) {
        if (value == spec.name) args->workload = &spec;
      }
    } else if (flag == "--seed" && numeric) {
      args->seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && numeric && number > 0) {
      args->seconds = static_cast<double>(number);
    } else if (flag == "--trace" && numeric && number <= 1) {
      args->trace = number == 1;
      have_trace = true;
    } else {
      return false;
    }
  }
  return args->workload != nullptr && have_seed && have_trace &&
         args->seconds > 0;
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *args.workload;
  std::printf("dcws_tcp_bench workload=%s seed=%llu seconds=%g trace=%d "
              "servers=%d browsers=%d author=%g/s slices=%d "
              "transport=loopback\n",
              spec.name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, kServers, kBrowsers,
              spec.puts_per_second, kSlices);
  std::fflush(stdout);

  SpanLog setup_spans(1);
  ClientTally warmup;
  std::vector<Group::SetupTimes> setups;
  std::unique_ptr<Group> group;
  for (int i = 0; i < kSetups; ++i) {
    group.reset();  // one group alive at a time
    Group::SetupTimes times;
    auto started = Group::Start(spec, args.seed,
                                args.trace ? &setup_spans : nullptr,
                                &warmup, &times);
    if (!started.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    group = std::move(started).value();
    setups.push_back(times);
    std::printf("setup %d: %.3f s (site %.3f, load %.3f, start %.3f, "
                "placement %.3f with %llu migrations)\n",
                i + 1, times.total(), times.site_build_s, times.load_site_s,
                times.start_s, times.placement_s,
                static_cast<unsigned long long>(times.migrations));
  }
  std::vector<double> totals;
  for (const Group::SetupTimes& s : setups) totals.push_back(s.total());
  const double setup_s = Median(totals);

  Measurement m;
  {
    Runner runner(group.get(), spec, args.seed);
    m = runner.Measure(args.seconds, args.trace);
    if (args.trace) {
      std::vector<const SpanLog*> logs = runner.span_logs();
      logs.push_back(&setup_spans);
      // One file per workload, rewritten by each traced run.
      const std::string path =
          std::string(".bench_out/spans-") + spec.name + ".jsonl";
      uint64_t overflow = 0;
      for (const SpanLog* log : logs) overflow += log->overflow();
      std::printf("spans: %zu written to %s (%llu past the cap dropped)\n",
                  WriteSpans(path, logs), path.c_str(),
                  static_cast<unsigned long long>(overflow));
    }
  }
  std::printf("placement: %.0f documents hosted away from the home\n",
              CounterValue(group->MergedMetrics(), "dcws_migrated_documents"));

  // Output checks over the warm-ups and the window.
  const Slice window = m.Sum(AnySlice);
  ClientTally all = warmup;
  all.Merge(window.client);
  std::vector<std::string> failures = Reconcile(window);
  if (all.violations > 0) {
    failures.push_back(std::to_string(all.violations) +
                       " responses failed an output check");
  }
  if (window.author.failures > 0) {
    failures.push_back(std::to_string(window.author.failures) +
                       " PutDocument calls failed");
  }
  for (const std::string& problem : all.problems) {
    std::printf("note: %s\n", problem.c_str());
  }
  for (const std::string& problem : window.author.problems) {
    std::printf("note: %s\n", problem.c_str());
  }
  for (const std::string& failure : failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("checks: %llu exchanges (%llu in warm-up), %llu links, %llu "
              "bodies byte-compared; %llu 404s for site documents, %llu "
              "503s, %llu transport errors; %llu puts\n",
              static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(warmup.attempted),
              static_cast<unsigned long long>(all.links_checked),
              static_cast<unsigned long long>(all.bytes_checked),
              static_cast<unsigned long long>(all.status_404),
              static_cast<unsigned long long>(all.status_503),
              static_cast<unsigned long long>(all.transport_errors),
              static_cast<unsigned long long>(window.author.puts));
  std::printf("window: %.3f s, %llu exchanges, %zu latency samples; "
              "slice throughput (1/s):",
              window.seconds,
              static_cast<unsigned long long>(window.client.attempted),
              window.client.latency_ns.size());
  for (const Slice& slice : m.slices) std::printf(" %.0f", Throughput(slice));
  std::printf("\n");

  std::vector<Metric> metrics =
      EndToEnd(m, args.trace ? UntracedSlice : AnySlice, setup_s);
  PrintTable(args.trace ? "end-to-end (untraced slices, medians):"
                        : "end-to-end (slice medians):",
             metrics);
  const std::pair<const char*, double> latencies[] = {
      {"latency_p50_us", 0.50}, {"latency_p99_us", 0.99}};
  for (const auto& [name, q] : latencies) {
    std::printf("  %-34s %16.4f us (no bound)\n", name,
                ClientLatencyUs(m, args.trace ? UntracedSlice : AnySlice, q));
  }
  if (args.trace) {
    metrics = PerLayer(m, setups);
    PrintTable("per-layer (traced slices):", metrics);
  }
  const bool correct = failures.empty();
  std::printf("%s\n", ResultJson(correct, window.client.attempted,
                                 window.client.failed(), metrics)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace dcws::perfbench

int main(int argc, char** argv) {
  // Pin glibc's allocator thresholds.  Left adaptive, the mmap
  // threshold moves with the order of frees across threads, so a
  // multi-megabyte body is served from fresh mmap'd pages in one run
  // and from reused heap in the next: sequoia_bulk saw 0.5M vs 1M page
  // faults and a 17% throughput spread on one seed.  Pinned high, large
  // buffers are reused, as in a long-running server.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
  dcws::perfbench::Args args;
  if (!dcws::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dcws_tcp_bench --workload "
                 "lod_browse|sequoia_bulk|mapug_update --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  return dcws::perfbench::Run(args);
}
