// Tests for the real-socket transport: a DCWS group on 127.0.0.1 with
// genuine HTTP/1.0 wire traffic between clients and servers and between
// the cooperating servers themselves.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <thread>

#include "src/net/tcp.h"
#include "src/obs/export.h"
#include "src/storage/fs.h"
#include "src/workload/browse.h"

namespace dcws::net {
namespace {

core::ServerParams FastParams() {
  core::ServerParams params;
  params.stats_interval = Millis(100);
  params.load_window = Millis(100);
  params.pinger_interval = Millis(200);
  params.selection.hit_threshold = 1;
  params.min_load_cps = 5;
  params.worker_threads = 4;
  return params;
}

storage::Document Doc(std::string path, std::string content) {
  storage::Document doc;
  doc.path = std::move(path);
  doc.content = std::move(content);
  doc.content_type = storage::GuessContentType(doc.path);
  return doc;
}

class TcpTest : public ::testing::Test {
 protected:
  TcpTest()
      : home_({"tcp-home", 8001}, FastParams(), &clock_),
        coop_({"tcp-coop", 8002}, FastParams(), &clock_) {
    home_.RegisterPeer(coop_.address());
    coop_.RegisterPeer(home_.address());
    EXPECT_TRUE(home_
                    .LoadSite({Doc("/index.html",
                                   "<a href=\"deep.html\">go</a>"),
                               Doc("/deep.html", "<img src=\"pic.gif\">"),
                               Doc("/pic.gif", std::string(1000, 'Z'))},
                              {"/index.html"})
                    .ok());
    auto home_host = network_.AddServer(&home_);
    auto coop_host = network_.AddServer(&coop_);
    EXPECT_TRUE(home_host.ok());
    EXPECT_TRUE(coop_host.ok());
    home_port_ = (*home_host)->port();
    coop_port_ = (*coop_host)->port();
  }

  ~TcpTest() override { network_.StopAll(); }

  http::Request Get(const std::string& target) {
    http::Request req;
    req.target = target;
    return req;
  }

  WallClock clock_;
  core::Server home_;
  core::Server coop_;
  TcpNetwork network_;
  uint16_t home_port_ = 0;
  uint16_t coop_port_ = 0;
};

TEST_F(TcpTest, ServesOverRealSockets) {
  auto response = TcpCall(home_port_, Get("/index.html"));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_EQ(response->body, "<a href=\"deep.html\">go</a>");
  EXPECT_EQ(response->headers.Get("Content-Type").value(), "text/html");
}

TEST_F(TcpTest, BinaryBodySurvivesTheWire) {
  auto response = TcpCall(home_port_, Get("/pic.gif"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->body, std::string(1000, 'Z'));
}

TEST_F(TcpTest, NotFoundAndBadRequests) {
  auto missing = TcpCall(home_port_, Get("/nope.html"));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status_code, 404);

  // Raw garbage on the socket gets a 400.
  auto conn = ConnectLoopback(home_port_);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(WriteAll(*conn, "NONSENSE\r\n\r\n").ok());
  auto reply = ReadSome(*conn);
  ASSERT_TRUE(reply.ok());
  EXPECT_NE(reply->find("400"), std::string::npos);
}

TEST_F(TcpTest, OverflowingContentLengthGetsAnImmediate400) {
  // The client keeps the connection open and sends nothing more, so the
  // reply must come from the header block alone.  The receive timeout
  // turns a server that waits for more bytes into a failure, not a hang.
  auto conn = ConnectLoopback(home_port_);
  ASSERT_TRUE(conn.ok());
  timeval timeout{5, 0};
  ASSERT_EQ(::setsockopt(conn->fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  ASSERT_TRUE(WriteAll(*conn,
                       "PUT /index.html HTTP/1.0\r\n"
                       "Content-Length: 18446744073709551615\r\n\r\n")
                  .ok());
  auto reply = ReadSome(*conn);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->starts_with("HTTP/1.0 400")) << *reply;
}

TEST_F(TcpTest, StatusEndpointReports) {
  ASSERT_TRUE(TcpCall(home_port_, Get("/index.html")).ok());
  auto response = TcpCall(home_port_, Get("/~status"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 200);
  EXPECT_NE(response->body.find("dcws server tcp-home:8001"),
            std::string::npos);
  EXPECT_NE(response->body.find("documents: 3"), std::string::npos);
}

TEST_F(TcpTest, NetworkExecutesByServerName) {
  auto response = network_.Execute(home_.address(), Get("/deep.html"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 200);
  EXPECT_TRUE(network_
                  .Execute({"unknown", 1}, Get("/x"))
                  .status()
                  .IsNotFound());
}

TEST_F(TcpTest, MigrationAndCoopFetchOverSockets) {
  // Drive load over real sockets until the duty thread migrates.
  for (int i = 0; i < 600; ++i) {
    auto r = TcpCall(home_port_, Get("/deep.html"));
    ASSERT_TRUE(r.ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  std::string migrated;
  for (const auto& record : home_.ldg().Snapshot()) {
    if (!(record.location == home_.address())) migrated = record.name;
  }
  ASSERT_FALSE(migrated.empty()) << "expected a migration under load";

  // Fetch through the co-op's socket: triggers a real socket-to-socket
  // co-op fetch back to home.
  auto response = TcpCall(
      coop_port_,
      Get(migrate::EncodeMigratedTarget(home_.address(), migrated)));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 200);
  EXPECT_GE(coop_.counters().coop_fetches, 1u);

  // And the home 301s stale requests to the co-op.
  auto redirect = TcpCall(home_port_, Get(migrated));
  ASSERT_TRUE(redirect.ok());
  EXPECT_EQ(redirect->status_code, 301);
}

TEST_F(TcpTest, ParallelSocketClients) {
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 25; ++i) {
        auto r = TcpCall(home_port_, Get("/index.html"));
        if (r.ok() && r->status_code == 200) ++ok;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok.load(), 150);
}

TEST_F(TcpTest, FetcherWalksOverSockets) {
  TcpFetcher fetcher(&network_);
  workload::BrowsingClient client(
      {http::Url{"tcp-home", 8001, "/index.html"}}, 3);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(client.RunWalk(fetcher));
  }
  EXPECT_EQ(client.stats().failures, 0u);
}

// ------------------------------------------------------- fs round trip

TEST(TcpHistoryTest, RingFillsOverSockets) {
  // Same acceptance check as the in-process transport, over the wire:
  // the duty thread's sampler (50 ms interval; a dedicated server so
  // the fast sampler doesn't load the shared fixture) must yield >= 2
  // samples.
  WallClock clock;
  core::ServerParams params = FastParams();
  params.history_interval = Millis(50);
  core::Server server({"tcp-hist", 8200}, params, &clock);
  ASSERT_TRUE(
      server.LoadSite({Doc("/index.html", "<p>hi</p>")}, {}).ok());
  TcpNetwork network;
  auto host = network.AddServer(&server);
  ASSERT_TRUE(host.ok());
  uint16_t port = (*host)->port();

  http::Request get;
  get.target = "/index.html";
  auto page = TcpCall(port, get);
  ASSERT_TRUE(page.ok());

  http::Request history;
  history.target =
      "/.dcws/history?metric=dcws_requests_total&format=json";
  std::string body;
  for (int i = 0; i < 40; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto response = TcpCall(port, history);
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->status_code, 200);
    body = response->body;
    if (body.find("],[") != std::string::npos) break;
  }
  network.StopAll();
  EXPECT_NE(body.find("\"name\":\"dcws_requests_total\""),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("],["), std::string::npos) << body;
}

TEST(TcpOverflowTest, FullSocketQueueAnswers503AndRecovers) {
  // One worker and L_sq = 2: an idle connection parks the worker in its
  // read, two more idle connections fill the socket queue, and the next
  // connection must be shed with an immediate 503 (§5.2).
  WallClock clock;
  core::ServerParams params = FastParams();
  params.worker_threads = 1;
  params.socket_queue_length = 2;
  core::Server server({"tcp-shed", 8300}, params, &clock);
  ASSERT_TRUE(
      server.LoadSite({Doc("/index.html", "<p>hi</p>")}, {}).ok());
  TcpNetwork network;
  auto started = network.AddServer(&server);
  ASSERT_TRUE(started.ok());
  TcpServerHost* host = *started;
  auto wait_accepted = [&](uint64_t n) {
    for (int i = 0; i < 500 && host->accepted() < n; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(host->accepted(), n);
  };

  auto parked = ConnectLoopback(host->port());
  ASSERT_TRUE(parked.ok());
  wait_accepted(1);
  // Give the single worker time to dequeue it and block reading.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto queued_a = ConnectLoopback(host->port());
  auto queued_b = ConnectLoopback(host->port());
  ASSERT_TRUE(queued_a.ok() && queued_b.ok());
  wait_accepted(3);

  auto shed = ConnectLoopback(host->port());
  ASSERT_TRUE(shed.ok());
  timeval timeout{5, 0};
  ASSERT_EQ(::setsockopt(shed->fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  auto reply = ReadSome(*shed);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->starts_with("HTTP/1.0 503")) << *reply;

  EXPECT_EQ(host->dropped(), 1u);
  auto snapshot = server.metrics().Snapshot();
  const obs::MetricSnapshot* dropped = obs::FindMetric(
      snapshot, "dcws_requests_total", {{"outcome", "dropped"}});
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value, static_cast<double>(host->dropped()));

  // Closing the idle connections frees the worker, which then reads the
  // queued ones to EOF; until it has, a GET may still be shed.
  parked->Close();
  queued_a->Close();
  queued_b->Close();
  http::Request get;
  get.target = "/index.html";
  auto page = TcpCall(host->port(), get);
  for (int i = 0; i < 500 && page.ok() && page->status_code == 503; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    page = TcpCall(host->port(), get);
  }
  ASSERT_TRUE(page.ok()) << page.status();
  EXPECT_EQ(page->status_code, 200);
  network.StopAll();
}

TEST(FsTest, SaveAndLoadDirectoryRoundTrip) {
  std::string root =
      ::testing::TempDir() + "/dcws_fs_test_" +
      std::to_string(::getpid());
  std::vector<storage::Document> documents = {
      Doc("/index.html", "<a href=\"sub/a.html\">a</a>"),
      Doc("/sub/a.html", "<p>nested</p>"),
      Doc("/img/x.gif", std::string(64, '\x01')),
  };
  ASSERT_TRUE(storage::SaveDirectory(root, documents).ok());

  auto loaded = storage::LoadDirectory(root);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), documents.size());
  // LoadDirectory sorts by path.
  EXPECT_EQ((*loaded)[0].path, "/img/x.gif");
  EXPECT_EQ((*loaded)[1].path, "/index.html");
  EXPECT_EQ((*loaded)[2].path, "/sub/a.html");
  EXPECT_EQ((*loaded)[1].content, documents[0].content);
  EXPECT_EQ((*loaded)[0].content_type, "image/gif");
  EXPECT_EQ((*loaded)[2].content, "<p>nested</p>");
}

// Sends head + body with the gathered WriteAll from a non-blocking
// socket whose send buffer is far smaller than the message, so sendmsg
// can only take part of it each time; a reader thread drains the other
// end in small reads.  Returns what the reader received.
std::string SendGathered(std::string_view head, std::string_view body) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    ADD_FAILURE() << "socketpair failed";
    return "";
  }
  Socket writer(fds[0]);
  Socket reader(fds[1]);
  int sndbuf = 4096;
  EXPECT_EQ(::setsockopt(writer.fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf,
                         sizeof(sndbuf)),
            0);
  socklen_t len = sizeof(sndbuf);
  EXPECT_EQ(::getsockopt(writer.fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf, &len),
            0);
  if (!body.empty()) {
    EXPECT_LT(static_cast<size_t>(sndbuf), body.size());
  }
  EXPECT_EQ(::fcntl(writer.fd(), F_SETFL, O_NONBLOCK), 0);

  std::string received;
  std::thread drain([&] {
    while (true) {
      auto chunk = ReadSome(reader, 1500);
      if (!chunk.ok() || chunk->empty()) return;
      received += *chunk;
    }
  });
  EXPECT_TRUE(WriteAll(writer, head, body).ok());
  writer.Close();
  drain.join();
  return received;
}

TEST(GatheredWriteTest, PartialWritesReassembleToSerialize) {
  std::string body(1 << 20, '\0');
  for (size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<char>('a' + (i * 7 + i / 4096) % 26);
  }
  http::Response ok = http::MakeOkResponse(body, "image/gif");
  EXPECT_EQ(SendGathered(ok.SerializeHead(), ok.body), ok.Serialize());

  // HEAD: the head advertises the entity's length; the body is empty.
  http::Response head;
  head.headers.Set(std::string(http::kHeaderContentLength),
                   std::to_string(body.size()));
  EXPECT_EQ(SendGathered(head.SerializeHead(), head.body), head.Serialize());

  http::Request put;
  put.method = "PUT";
  put.target = "/up.html";
  put.body = body.substr(0, 100000);
  EXPECT_EQ(SendGathered(put.SerializeHead(), put.body), put.Serialize());
}

TEST(FsTest, LoadMissingDirectoryFails) {
  EXPECT_TRUE(storage::LoadDirectory("/no/such/dcws/dir")
                  .status()
                  .IsNotFound());
}

}  // namespace
}  // namespace dcws::net
