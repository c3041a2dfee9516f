#include "src/http/wire.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "src/util/string_util.h"

namespace dcws::http {

namespace {

// Splits a raw header block (already missing the blank line) into lines,
// tolerating CRLF or LF.
std::vector<std::string_view> HeaderLines(std::string_view block) {
  std::vector<std::string_view> lines;
  for (std::string_view line : Split(block, '\n')) {
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// Locates the end of the header block: the offset just past the earliest
// "\r\n\r\n" or "\n\n".  Returns npos when incomplete.  The search
// starts at `from`; the caller guarantees that every '\n' before `from`
// has already been ruled out as part of a terminator.
size_t FindHeaderEnd(std::string_view wire, size_t from = 0) {
  const char* data = wire.data();
  const size_t size = wire.size();
  while (from + 1 < size) {
    const void* hit = std::memchr(data + from, '\n', size - from);
    if (hit == nullptr) break;
    size_t nl = static_cast<size_t>(static_cast<const char*>(hit) - data);
    if (nl + 1 >= size) break;
    if (data[nl + 1] == '\n') return nl + 2;
    if (nl > 0 && data[nl - 1] == '\r' && nl + 2 < size &&
        data[nl + 1] == '\r' && data[nl + 2] == '\n') {
      return nl + 3;
    }
    from = nl + 1;
  }
  return std::string_view::npos;
}

Status ParseHeaderFields(const std::vector<std::string_view>& lines,
                         HeaderMap& headers) {
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string_view line = lines[i];
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return Status::Corruption("malformed header line: " +
                                std::string(line));
    }
    std::string_view name = Trim(line.substr(0, colon));
    std::string_view value = Trim(line.substr(colon + 1));
    if (name.empty()) {
      return Status::Corruption("empty header name");
    }
    headers.Add(std::string(name), std::string(value));
  }
  return Status::Ok();
}

Result<uint64_t> DeclaredBodyLength(const HeaderMap& headers) {
  auto raw = headers.Get(kHeaderContentLength);
  if (!raw.has_value()) return uint64_t{0};
  auto parsed = ParseUint64(Trim(*raw));
  if (!parsed.has_value()) {
    return Status::Corruption("bad Content-Length: " + std::string(*raw));
  }
  return *parsed;
}

}  // namespace

Result<Request> ParseRequest(std::string_view wire) {
  size_t header_end = FindHeaderEnd(wire);
  if (header_end == std::string_view::npos) {
    return Status::Corruption("incomplete request: no header terminator");
  }
  auto lines = HeaderLines(wire.substr(0, header_end));
  if (lines.empty()) return Status::Corruption("empty request");

  auto parts = SplitSkipEmpty(lines[0], ' ');
  if (parts.size() != 3) {
    return Status::Corruption("malformed request line: " +
                              std::string(lines[0]));
  }
  Request req;
  req.method = std::string(parts[0]);
  req.target = std::string(parts[1]);
  req.version = std::string(parts[2]);
  if (!StartsWith(req.version, "HTTP/")) {
    return Status::Corruption("bad http version: " + req.version);
  }
  DCWS_RETURN_IF_ERROR(ParseHeaderFields(lines, req.headers));

  DCWS_ASSIGN_OR_RETURN(uint64_t body_len,
                        DeclaredBodyLength(req.headers));
  std::string_view body = wire.substr(header_end);
  if (body.size() != body_len) {
    return Status::Corruption("body length mismatch");
  }
  req.body = std::string(body);
  return req;
}

Result<Response> ParseResponse(std::string_view wire) {
  size_t header_end = FindHeaderEnd(wire);
  if (header_end == std::string_view::npos) {
    return Status::Corruption("incomplete response: no header terminator");
  }
  auto lines = HeaderLines(wire.substr(0, header_end));
  if (lines.empty()) return Status::Corruption("empty response");

  // Status line: HTTP/1.0 200 OK  (reason phrase may contain spaces).
  std::string_view status_line = lines[0];
  size_t sp1 = status_line.find(' ');
  if (sp1 == std::string_view::npos) {
    return Status::Corruption("malformed status line");
  }
  size_t sp2 = status_line.find(' ', sp1 + 1);
  std::string_view code_text =
      sp2 == std::string_view::npos
          ? status_line.substr(sp1 + 1)
          : status_line.substr(sp1 + 1, sp2 - sp1 - 1);
  auto code = ParseUint64(code_text);
  if (!code.has_value() || *code < 100 || *code > 599) {
    return Status::Corruption("bad status code: " + std::string(code_text));
  }

  Response resp;
  resp.version = std::string(status_line.substr(0, sp1));
  if (!StartsWith(resp.version, "HTTP/")) {
    return Status::Corruption("bad http version: " + resp.version);
  }
  resp.status_code = static_cast<int>(*code);
  DCWS_RETURN_IF_ERROR(ParseHeaderFields(lines, resp.headers));

  DCWS_ASSIGN_OR_RETURN(uint64_t body_len,
                        DeclaredBodyLength(resp.headers));
  std::string_view body = wire.substr(header_end);
  if (body.size() != body_len) {
    return Status::Corruption("body length mismatch");
  }
  resp.body = std::string(body);
  return resp;
}

void MessageFramer::Feed(std::string_view bytes) {
  buffer_.append(bytes);
}

bool MessageFramer::FrameHeader() {
  if (message_size_ != 0) return true;
  if (!error_.ok()) return false;
  size_t header_end = FindHeaderEnd(buffer_, scan_from_);
  if (header_end == std::string_view::npos) {
    // A terminator may straddle the next Feed: re-examine the last two
    // bytes, whose '\n's could not be ruled out yet.
    scan_from_ = buffer_.size() < 2 ? 0 : buffer_.size() - 2;
    return false;
  }

  HeaderMap headers;
  auto lines = HeaderLines(std::string_view(buffer_).substr(0, header_end));
  if (lines.empty()) {
    error_ = Status::Corruption("empty message");
    return false;
  }
  Status s = ParseHeaderFields(lines, headers);
  if (!s.ok()) {
    error_ = s;
    return false;
  }
  auto body_len = DeclaredBodyLength(headers);
  if (!body_len.ok()) {
    error_ = body_len.status();
    return false;
  }
  if (*body_len > std::numeric_limits<size_t>::max() - header_end) {
    error_ = Status::Corruption("Content-Length overflows: " +
                                std::to_string(*body_len));
    return false;
  }
  message_size_ = header_end + *body_len;
  // Pre-size only a response, whose length a server this process called
  // declared.  A request's length comes from any peer, so its buffer
  // grows only as the bytes arrive: a header alone pins no memory.
  if (StartsWith(buffer_, "HTTP/")) {
    buffer_.reserve(std::min(message_size_, kMaxReserveBytes));
  }
  return true;
}

std::optional<std::string> MessageFramer::NextMessage() {
  if (!FrameHeader() || buffer_.size() < message_size_) return std::nullopt;
  std::string message;
  if (buffer_.size() == message_size_) {
    message = std::move(buffer_);
    buffer_.clear();
  } else {
    message = buffer_.substr(0, message_size_);
    buffer_.erase(0, message_size_);
  }
  scan_from_ = 0;
  message_size_ = 0;
  return message;
}

}  // namespace dcws::http
