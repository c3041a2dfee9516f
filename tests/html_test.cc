#include <gtest/gtest.h>

#include "src/html/links.h"
#include "src/html/rewriter.h"
#include "src/html/token.h"

namespace dcws::html {
namespace {

// ------------------------------------------------------------- tokenizer

TEST(TokenizerTest, SimpleDocument) {
  auto tokens = Tokenize("<html><body>Hi</body></html>");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kStartTag);
  EXPECT_EQ(tokens[0].name, "html");
  EXPECT_EQ(tokens[2].kind, TokenKind::kText);
  EXPECT_EQ(tokens[2].raw, "Hi");
  EXPECT_EQ(tokens[3].kind, TokenKind::kEndTag);
  EXPECT_EQ(tokens[3].name, "body");
}

TEST(TokenizerTest, AttributesAllQuoteStyles) {
  auto tokens =
      Tokenize(R"(<a href="x.html" target='_top' rel=next checked>)");
  ASSERT_EQ(tokens.size(), 1u);
  const Token& t = tokens[0];
  ASSERT_EQ(t.attributes.size(), 4u);
  EXPECT_EQ(t.attributes[0].name, "href");
  EXPECT_EQ(t.attributes[0].value, "x.html");
  EXPECT_EQ(t.attributes[0].quote, '"');
  EXPECT_EQ(t.attributes[1].quote, '\'');
  EXPECT_EQ(t.attributes[2].quote, 0);
  EXPECT_EQ(t.attributes[2].value, "next");
  EXPECT_FALSE(t.attributes[3].has_value);
}

TEST(TokenizerTest, UppercaseNamesLowered) {
  auto tokens = Tokenize("<IMG SRC=\"a.gif\">");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].name, "img");
  EXPECT_EQ(tokens[0].attributes[0].name, "src");
}

TEST(TokenizerTest, CommentsAndDoctype) {
  auto tokens = Tokenize("<!DOCTYPE html><!-- note --><p>x</p>");
  ASSERT_GE(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kDoctype);
  EXPECT_EQ(tokens[1].kind, TokenKind::kComment);
  EXPECT_EQ(tokens[1].raw, "<!-- note -->");
}

TEST(TokenizerTest, CommentsMayContainTags) {
  auto tokens = Tokenize("<!-- <a href=\"x\"> --><p>");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kComment);
  EXPECT_EQ(tokens[1].name, "p");
}

TEST(TokenizerTest, ScriptContentIsRawtext) {
  auto tokens =
      Tokenize("<script>if (a<b) { x = '<a href=\"no\">'; }</script>");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].name, "script");
  EXPECT_EQ(tokens[1].kind, TokenKind::kText);
  EXPECT_EQ(tokens[2].kind, TokenKind::kEndTag);
}

TEST(TokenizerTest, StrayLessThanIsText) {
  auto tokens = Tokenize("a < b and c <3 d");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kText);
}

TEST(TokenizerTest, SelfClosingTag) {
  auto tokens = Tokenize("<br/><img src=\"x.gif\" />");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_TRUE(tokens[0].self_closing);
  EXPECT_TRUE(tokens[1].self_closing);
  EXPECT_EQ(tokens[1].attributes[0].value, "x.gif");
}

TEST(TokenizerTest, RoundTripIsByteExact) {
  const std::string html =
      "<!DOCTYPE html>\n<html>\n<!-- hdr -->\n"
      "<body bgcolor=white>\ntext & more <a HREF='x.html'>link</a>\n"
      "<img src=img.gif><script>a<b</script></body>\n</html>\n";
  EXPECT_EQ(SerializeTokens(Tokenize(html)), html);
}

TEST(TokenizerTest, UnterminatedTagDegradesGracefully) {
  const std::string html = "<p>ok</p><a href=\"x";
  auto tokens = Tokenize(html);
  EXPECT_EQ(SerializeTokens(tokens), html);
}

TEST(TokenRegenerateTest, PreservesQuoteStyles) {
  auto tokens = Tokenize("<a href='x' rel=next checked>");
  EXPECT_EQ(tokens[0].Regenerate(), "<a href='x' rel=next checked>");
}

TEST(VoidElementTest, KnownVoids) {
  EXPECT_TRUE(IsVoidElement("img"));
  EXPECT_TRUE(IsVoidElement("br"));
  EXPECT_TRUE(IsVoidElement("frame"));
  EXPECT_FALSE(IsVoidElement("a"));
  EXPECT_FALSE(IsVoidElement("div"));
}

// ----------------------------------------------------------------- links

TEST(LinksTest, ExtractsAnchorsAndImages) {
  auto links = ExtractLinks(
      "<a href=\"next.html\">n</a><img src=\"pics/b.gif\">"
      "<frame src=\"inner.html\">",
      "/dir/page.html");
  ASSERT_EQ(links.size(), 3u);
  EXPECT_EQ(links[0].kind, LinkKind::kHyperlink);
  EXPECT_EQ(links[0].resolved, "/dir/next.html");
  EXPECT_EQ(links[1].kind, LinkKind::kEmbedded);
  EXPECT_EQ(links[1].resolved, "/dir/pics/b.gif");
  EXPECT_EQ(links[2].kind, LinkKind::kEmbedded);
}

TEST(LinksTest, SkipsFragmentsAndSchemes) {
  auto links = ExtractLinks(
      "<a href=\"#top\">t</a><a href=\"mailto:x@y\">m</a>"
      "<a href=\"javascript:void(0)\">j</a><a href=\"real.html\">r</a>",
      "/p.html");
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0].resolved, "/real.html");
}

TEST(LinksTest, MarksExternal) {
  auto links = ExtractLinks(
      "<a href=\"http://elsewhere:80/x.html\">e</a>"
      "<a href=\"local.html\">l</a>",
      "/p.html");
  ASSERT_EQ(links.size(), 2u);
  EXPECT_TRUE(links[0].external);
  EXPECT_FALSE(links[1].external);
}

TEST(LinksTest, BodyBackgroundIsEmbedded) {
  auto links = ExtractLinks("<body background=\"bg.gif\">", "/p.html");
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0].kind, LinkKind::kEmbedded);
}

TEST(LinksTest, HrefOnNonLinkTagIgnored) {
  auto links = ExtractLinks("<p href=\"x.html\">", "/p.html");
  EXPECT_TRUE(links.empty());
}

// -------------------------------------------------------------- rewriter

TEST(RewriterTest, RewritesMatchingLinksOnly) {
  const std::string html =
      "<a href=\"a.html\">A</a> <a href=\"b.html\">B</a>";
  auto result = RewriteLinks(html, "/p.html",
                             [](const LinkOccurrence& link)
                                 -> std::optional<std::string> {
                               if (link.resolved == "/a.html") {
                                 return "http://coop:81/~migrate/h/80/"
                                        "a.html";
                               }
                               return std::nullopt;
                             });
  EXPECT_EQ(result.links_seen, 2u);
  EXPECT_EQ(result.links_rewritten, 1u);
  EXPECT_EQ(result.html,
            "<a href=\"http://coop:81/~migrate/h/80/a.html\">A</a> "
            "<a href=\"b.html\">B</a>");
}

TEST(RewriterTest, NoChangeIsByteExact) {
  const std::string html =
      "<!DOCTYPE html><body bgcolor=white><a href='x.html'>x</a>\n"
      "<img src=i.gif></body>";
  auto result = RewriteLinks(
      html, "/p.html",
      [](const LinkOccurrence&) { return std::nullopt; });
  EXPECT_EQ(result.html, html);
  EXPECT_EQ(result.links_rewritten, 0u);
}

TEST(RewriterTest, UnquotedAttributeGetsQuoted) {
  auto result = RewriteLinks(
      "<img src=i.gif>", "/p.html",
      [](const LinkOccurrence&) -> std::optional<std::string> {
        return "http://c:81/~migrate/h/80/i.gif";
      });
  EXPECT_EQ(result.html,
            "<img src=\"http://c:81/~migrate/h/80/i.gif\">");
}

TEST(RewriterTest, IdenticalReplacementNotCounted) {
  auto result = RewriteLinks(
      "<a href=\"x.html\">x</a>", "/p.html",
      [](const LinkOccurrence& link) -> std::optional<std::string> {
        return link.raw;  // same value
      });
  EXPECT_EQ(result.links_rewritten, 0u);
}

TEST(RewriterTest, MultipleLinksInOneTag) {
  // body with background + nested content: two rewrites in one pass.
  auto result = RewriteLinks(
      "<body background=\"bg.gif\"><a href=\"a.html\">a</a></body>",
      "/p.html",
      [](const LinkOccurrence& link) -> std::optional<std::string> {
        return "http://c:81/~migrate/h/80" + link.resolved;
      });
  EXPECT_EQ(result.links_rewritten, 2u);
  EXPECT_NE(result.html.find("http://c:81/~migrate/h/80/bg.gif"),
            std::string::npos);
  EXPECT_NE(result.html.find("http://c:81/~migrate/h/80/a.html"),
            std::string::npos);
}

}  // namespace
}  // namespace dcws::html
