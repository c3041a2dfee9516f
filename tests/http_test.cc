#include <gtest/gtest.h>

#include "src/http/address.h"
#include "src/http/message.h"
#include "src/http/url.h"
#include "src/http/wire.h"
#include "src/obs/trace.h"

namespace dcws::http {
namespace {

// ------------------------------------------------------------------- Url

TEST(UrlTest, ParseFullUrl) {
  auto url = Url::Parse("http://www.cs.arizona.edu:8080/dcws/index.html");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->host, "www.cs.arizona.edu");
  EXPECT_EQ(url->port, 8080);
  EXPECT_EQ(url->path, "/dcws/index.html");
}

TEST(UrlTest, ParseDefaultsPortAndPath) {
  auto url = Url::Parse("http://example.com");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->port, 80);
  EXPECT_EQ(url->path, "/");
}

TEST(UrlTest, RejectsBadInput) {
  EXPECT_FALSE(Url::Parse("ftp://x/").ok());
  EXPECT_FALSE(Url::Parse("http://host:0/").ok());
  EXPECT_FALSE(Url::Parse("http://host:99999/").ok());
  EXPECT_FALSE(Url::Parse("http://:80/").ok());
  EXPECT_FALSE(Url::Parse("").ok());
}

TEST(UrlTest, RoundTrip) {
  auto url = Url::Parse("http://h:81/a/b.html");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->ToString(), "http://h:81/a/b.html");
  EXPECT_EQ(url->Authority(), "h:81");
}

TEST(UrlTest, NormalizePath) {
  EXPECT_EQ(NormalizePath("/a/./b/../c.html"), "/a/c.html");
  EXPECT_EQ(NormalizePath("/../../x"), "/x");
  EXPECT_EQ(NormalizePath("/"), "/");
  EXPECT_EQ(NormalizePath("/a//b"), "/a/b");
  EXPECT_EQ(NormalizePath("/a/b/"), "/a/b/");
}

TEST(UrlTest, ResolveReferenceRelative) {
  EXPECT_EQ(ResolveReference("/dir/page.html", "img.gif"),
            "/dir/img.gif");
  EXPECT_EQ(ResolveReference("/dir/page.html", "../up.html"),
            "/up.html");
  EXPECT_EQ(ResolveReference("/dir/page.html", "/abs.html"),
            "/abs.html");
  EXPECT_EQ(ResolveReference("/page.html", "sub/x.html"), "/sub/x.html");
}

TEST(UrlTest, ResolveReferenceStripsFragmentAndQuery) {
  EXPECT_EQ(ResolveReference("/d/p.html", "x.html#sec"), "/d/x.html");
  EXPECT_EQ(ResolveReference("/d/p.html", "x.html?q=1"), "/d/x.html");
  EXPECT_EQ(ResolveReference("/d/p.html", ""), "/d/p.html");
}

TEST(UrlTest, ResolveReferenceAbsoluteUrlPassesThrough) {
  EXPECT_EQ(ResolveReference("/d/p.html", "http://other:80/x.html"),
            "http://other:80/x.html");
  EXPECT_TRUE(IsAbsoluteUrl("http://a/b"));
  EXPECT_FALSE(IsAbsoluteUrl("/a/b"));
}

// --------------------------------------------------------- ServerAddress

TEST(ServerAddressTest, ParseAndFormat) {
  auto addr = ServerAddress::Parse("node7:8080");
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr->host, "node7");
  EXPECT_EQ(addr->port, 8080);
  EXPECT_EQ(addr->ToString(), "node7:8080");
}

TEST(ServerAddressTest, RejectsMissingPort) {
  EXPECT_FALSE(ServerAddress::Parse("node7").ok());
  EXPECT_FALSE(ServerAddress::Parse(":80").ok());
  EXPECT_FALSE(ServerAddress::Parse("h:0").ok());
}

TEST(ServerAddressTest, OrderingAndEquality) {
  ServerAddress a{"a", 80}, b{"a", 81}, c{"b", 80};
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b < c);
  EXPECT_TRUE(a == ServerAddress({"a", 80}));
  EXPECT_FALSE(a == b);
}

// --------------------------------------------------------------- headers

TEST(HeaderMapTest, CaseInsensitiveGet) {
  HeaderMap h;
  h.Add("Content-Type", "text/html");
  EXPECT_EQ(h.Get("content-type").value(), "text/html");
  EXPECT_TRUE(h.Has("CONTENT-TYPE"));
  EXPECT_FALSE(h.Has("content-length"));
}

TEST(HeaderMapTest, SetReplacesAll) {
  HeaderMap h;
  h.Add("X", "1");
  h.Add("X", "2");
  h.Set("x", "3");
  EXPECT_EQ(h.size(), 1u);
  EXPECT_EQ(h.Get("X").value(), "3");
}

TEST(HeaderMapTest, RemoveErasesAllMatches) {
  HeaderMap h;
  h.Add("A", "1");
  h.Add("a", "2");
  h.Add("B", "3");
  h.Remove("A");
  EXPECT_EQ(h.size(), 1u);
  EXPECT_TRUE(h.Has("B"));
}

// -------------------------------------------------------------- messages

TEST(MessageTest, RequestSerializeAddsContentLength) {
  Request req;
  req.method = "GET";
  req.target = "/x.html";
  req.body = "hello";
  std::string wire = req.Serialize();
  EXPECT_NE(wire.find("GET /x.html HTTP/1.0\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_TRUE(wire.ends_with("hello"));
}

TEST(MessageTest, ResponseSerializeHasReason) {
  Response resp = MakeRedirectResponse("http://coop:81/~migrate/h/80/x");
  std::string wire = resp.Serialize();
  EXPECT_NE(wire.find("HTTP/1.0 301 Moved Permanently\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Location: http://coop:81/~migrate/h/80/x"),
            std::string::npos);
}

TEST(MessageTest, ConvenienceConstructors) {
  Response ok = MakeOkResponse("body", "text/html");
  EXPECT_TRUE(ok.IsSuccess());
  EXPECT_EQ(ok.headers.Get(kHeaderContentType).value(), "text/html");

  Response overloaded = MakeOverloadedResponse();
  EXPECT_EQ(overloaded.status_code, 503);
  EXPECT_TRUE(overloaded.headers.Has(kHeaderRetryAfter));

  Response nf = MakeNotFoundResponse("/x");
  EXPECT_EQ(nf.status_code, 404);
  EXPECT_TRUE(MakeRedirectResponse("u").IsRedirect());
}

TEST(MessageTest, ReasonPhrases) {
  EXPECT_EQ(ReasonPhrase(200), "OK");
  EXPECT_EQ(ReasonPhrase(301), "Moved Permanently");
  EXPECT_EQ(ReasonPhrase(503), "Service Unavailable");
  EXPECT_EQ(ReasonPhrase(299), "Unknown");
}

// ------------------------------------------------------------------ wire

TEST(WireTest, ParseRequestRoundTrip) {
  Request req;
  req.method = "GET";
  req.target = "/a/b.html";
  req.headers.Add("Host", "server1:8001");
  req.headers.Add("X-DCWS-Load", "s1:8001=12.5;100");
  auto parsed = ParseRequest(req.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->method, "GET");
  EXPECT_EQ(parsed->target, "/a/b.html");
  EXPECT_EQ(parsed->headers.Get("host").value(), "server1:8001");
  EXPECT_EQ(parsed->headers.Get("x-dcws-load").value(),
            "s1:8001=12.5;100");
}

TEST(WireTest, ParseResponseRoundTripWithBody) {
  Response resp = MakeOkResponse("payload-bytes", "text/plain");
  auto parsed = ParseResponse(resp.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->status_code, 200);
  EXPECT_EQ(parsed->body, "payload-bytes");
}

TEST(WireTest, ToleratesBareLf) {
  auto parsed = ParseRequest("GET / HTTP/1.0\nHost: h:80\n\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->headers.Get("Host").value(), "h:80");
}

TEST(WireTest, RejectsMalformed) {
  EXPECT_FALSE(ParseRequest("GET /\r\n\r\n").ok());        // no version
  EXPECT_FALSE(ParseRequest("GET / HTTP/1.0\r\n").ok());   // no blank line
  EXPECT_FALSE(ParseRequest("GET / HTTP/1.0\r\nBad\r\n\r\n").ok());
  EXPECT_FALSE(ParseResponse("HTTP/1.0 abc OK\r\n\r\n").ok());
  EXPECT_FALSE(
      ParseResponse("HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\nabc")
          .ok());  // short body
}

TEST(WireTest, FramerSplitsPipelinedMessages) {
  Response a = MakeOkResponse("first", "text/plain");
  Response b = MakeOkResponse("second!", "text/plain");
  std::string wire = a.Serialize() + b.Serialize();

  MessageFramer framer;
  // Feed in awkward chunks.
  for (size_t i = 0; i < wire.size(); i += 7) {
    framer.Feed(std::string_view(wire).substr(i, 7));
  }
  auto m1 = framer.NextMessage();
  ASSERT_TRUE(m1.has_value());
  auto p1 = ParseResponse(*m1);
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(p1->body, "first");

  auto m2 = framer.NextMessage();
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ(ParseResponse(*m2)->body, "second!");

  EXPECT_FALSE(framer.NextMessage().has_value());
  EXPECT_EQ(framer.buffered_bytes(), 0u);
}

TEST(WireTest, FramerWaitsForFullBody) {
  MessageFramer framer;
  framer.Feed("HTTP/1.0 200 OK\r\nContent-Length: 10\r\n\r\n12345");
  EXPECT_FALSE(framer.NextMessage().has_value());
  framer.Feed("67890");
  EXPECT_TRUE(framer.NextMessage().has_value());
}

TEST(WireTest, FramerReportsBadContentLength) {
  MessageFramer framer;
  framer.Feed("HTTP/1.0 200 OK\r\nContent-Length: zap\r\n\r\n");
  EXPECT_FALSE(framer.NextMessage().has_value());
  EXPECT_TRUE(framer.has_error());
}

TEST(MessageTest, SerializeIsHeadThenBody) {
  Response resp = MakeOkResponse("body\r\n\r\nbytes", "text/plain");
  EXPECT_EQ(resp.Serialize(), resp.SerializeHead() + resp.body);
  EXPECT_TRUE(resp.SerializeHead().ends_with("\r\n\r\n"));
  EXPECT_NE(resp.SerializeHead().find("Content-Length: 13\r\n"),
            std::string::npos);

  Request req;
  req.target = "/up.html";
  req.body = "abc";
  EXPECT_EQ(req.Serialize(), req.SerializeHead() + req.body);
}

// Feeds `wire` one byte at a time: every terminator and Content-Length
// boundary straddles a chunk edge.  The message must appear exactly when
// its last byte arrives, and not before.
void ExpectFramedByteByByte(const std::string& wire) {
  MessageFramer framer;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    framer.Feed(std::string_view(wire).substr(i, 1));
    ASSERT_FALSE(framer.NextMessage().has_value()) << "early at byte " << i;
    ASSERT_FALSE(framer.has_error());
  }
  framer.Feed(std::string_view(wire).substr(wire.size() - 1));
  auto message = framer.NextMessage();
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(*message, wire);
  EXPECT_EQ(framer.buffered_bytes(), 0u);
}

TEST(WireTest, FramerByteByByteCrlfAndBareLf) {
  ExpectFramedByteByByte(
      "HTTP/1.0 200 OK\r\nContent-Length: 4\r\n\r\nabcd");
  ExpectFramedByteByByte("HTTP/1.0 200 OK\nContent-Length: 4\n\nabcd");
  // CR LF LF: the bare-LF blank line ends the block.
  ExpectFramedByteByByte("HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\nab");
  ExpectFramedByteByByte("GET /x.html HTTP/1.0\r\nHost: h:80\r\n\r\n");
  ExpectFramedByteByByte("GET /x.html HTTP/1.0\n\n");
}

TEST(WireTest, FramerAndParserStopAtTheFirstBlankLine) {
  // Terminators inside the body are body bytes, whichever style the
  // header block used.
  for (const char* body : {"a\n\nb", "a\r\n\r\nb", "\n\n\r\n\r\n"}) {
    std::string crlf = MakeOkResponse(body, "text/plain").Serialize();
    std::string lf = "HTTP/1.0 200 OK\nContent-Length: " +
                     std::to_string(std::string_view(body).size()) +
                     "\n\n" + body;
    for (const std::string& wire : {crlf, lf}) {
      ExpectFramedByteByByte(wire);
      auto parsed = ParseResponse(wire);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      EXPECT_EQ(parsed->body, body);
    }
  }
}

TEST(WireTest, FramerHoldsPartialPipelinedMessage) {
  std::string a = MakeOkResponse("first\n\n", "text/plain").Serialize();
  std::string b = MakeOkResponse("second\r\n\r\n", "text/plain").Serialize();
  const size_t half = b.size() / 2;

  MessageFramer framer;
  framer.Feed(a + b.substr(0, half));
  auto m1 = framer.NextMessage();
  ASSERT_TRUE(m1.has_value());
  EXPECT_EQ(*m1, a);
  EXPECT_FALSE(framer.NextMessage().has_value());
  EXPECT_EQ(framer.buffered_bytes(), half);

  framer.Feed(std::string_view(b).substr(half));
  auto m2 = framer.NextMessage();
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ(*m2, b);
  EXPECT_EQ(framer.buffered_bytes(), 0u);
}

TEST(WireTest, FramerIsReusableAfterHandingOutItsBuffer) {
  MessageFramer framer;
  for (int round = 0; round < 3; ++round) {
    std::string body(1000 + round, static_cast<char>('a' + round));
    std::string wire = MakeOkResponse(body, "text/plain").Serialize();
    // Exactly one message buffered: handed out whole.
    framer.Feed(wire);
    auto message = framer.NextMessage();
    ASSERT_TRUE(message.has_value());
    EXPECT_EQ(*message, wire);
    EXPECT_EQ(framer.buffered_bytes(), 0u);
    EXPECT_FALSE(framer.NextMessage().has_value());
  }
  // A fresh header block split mid-terminator after the hand-over.
  framer.Feed("HTTP/1.0 404 Not Found\r\n\r");
  EXPECT_FALSE(framer.NextMessage().has_value());
  framer.Feed("\n");
  auto message = framer.NextMessage();
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(ParseResponse(*message)->status_code, 404);
}

TEST(WireTest, FramerSurvivesHugeDeclaredLengths) {
  // UINT64_MAX, a length that overflows header_end + length, and a
  // length that fits size_t but could never be allocated: each must end
  // in an error or in waiting for more bytes, never in a throw, an abort
  // or an allocation of the declared size.
  for (const char* length : {"18446744073709551615", "18446744073709551610",
                             "4611686018427387904"}) {
    MessageFramer framer;
    std::string head =
        std::string("HTTP/1.0 200 OK\r\nContent-Length: ") + length +
        "\r\n\r\nsome body bytes";
    EXPECT_NO_THROW({
      framer.Feed(head);
      EXPECT_FALSE(framer.NextMessage().has_value());
      framer.Feed(std::string(4096, 'x'));
      EXPECT_FALSE(framer.NextMessage().has_value());
    }) << length;
    EXPECT_LE(framer.buffered_bytes(), head.size() + 4096);
  }
  MessageFramer overflow;
  overflow.Feed("HTTP/1.0 200 OK\r\nContent-Length: 18446744073709551615"
                "\r\n\r\n");
  EXPECT_FALSE(overflow.NextMessage().has_value());
  EXPECT_TRUE(overflow.has_error());
}

// A trace id set by one server survives serialization and parse on the
// receiving server — the propagation channel behind joined co-op span
// trees (same extension-header mechanism as the load piggyback).
TEST(WireTest, TraceHeaderRoundTrip) {
  obs::TraceId id = 0x1234abcd5678ef90ULL;
  Request req;
  req.method = "GET";
  req.target = "/a.html";
  req.headers.Set(std::string(kHeaderDcwsTrace), obs::FormatTraceId(id));

  auto parsed = ParseRequest(req.Serialize());
  ASSERT_TRUE(parsed.ok());
  auto header = parsed->headers.Get(std::string(kHeaderDcwsTrace));
  ASSERT_TRUE(header.has_value());
  auto round_tripped = obs::ParseTraceId(*header);
  ASSERT_TRUE(round_tripped.has_value());
  EXPECT_EQ(*round_tripped, id);
  // Header lookup is case-insensitive like every other header.
  EXPECT_TRUE(parsed->headers.Get("x-dcws-trace").has_value());
}

}  // namespace
}  // namespace dcws::http
