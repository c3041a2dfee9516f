#ifndef DCWS_HTTP_WIRE_H_
#define DCWS_HTTP_WIRE_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "src/http/message.h"
#include "src/util/result.h"

namespace dcws::http {

// Parses one complete request/response from `wire`.  The entire message
// (headers + Content-Length body) must be present; trailing bytes are an
// error.  Tolerates both CRLF and bare-LF line endings, per the robustness
// principle.
Result<Request> ParseRequest(std::string_view wire);
Result<Response> ParseResponse(std::string_view wire);

// Incremental framing for stream transports.  Feed() appends raw bytes;
// NextMessage() extracts the earliest complete message (header block plus
// Content-Length body) and returns its wire bytes, or nullopt if more
// input is needed.  Framing errors surface via the error() accessor.
//
// Work per message is linear in its size: the header-terminator scan
// resumes where the previous call stopped, the header block is parsed
// once, and a response's declared length pre-sizes the buffer (up to
// kMaxReserveBytes; a request's buffer grows only as its bytes arrive).
// When the buffer holds exactly one message it is handed out by move and
// the framer starts over with an empty buffer.
class MessageFramer {
 public:
  // Cap on the capacity reserved from a response's Content-Length;
  // larger bodies grow the buffer as their bytes arrive.
  static constexpr size_t kMaxReserveBytes = size_t{8} << 20;

  void Feed(std::string_view bytes);

  // Returns the wire bytes of the next complete message, if any.
  std::optional<std::string> NextMessage();

  bool has_error() const { return !error_.ok(); }
  const Status& error() const { return error_; }
  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  // Finds the front message's header block and parses its length.
  // Returns false while the block is incomplete or after an error.
  bool FrameHeader();

  std::string buffer_;
  // Front message state.  message_size_ is 0 until its header block has
  // been parsed; scan_from_ is where the terminator search resumes.
  size_t scan_from_ = 0;
  size_t message_size_ = 0;
  Status error_;
};

}  // namespace dcws::http

#endif  // DCWS_HTTP_WIRE_H_
