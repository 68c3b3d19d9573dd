#ifndef CDBTUNE_SERVER_NET_FRAME_H_
#define CDBTUNE_SERVER_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace cdbtune::server::net {

/// Binary wire format of the TCP front end (DESIGN.md §13). Every message —
/// request or response — is one length-prefixed frame:
///
///   offset  size  field
///        0     4  magic    0x43444254 ("CDBT"), little-endian
///        4     1  version  kFrameVersion
///        5     1  type     FrameType
///        6     2  reserved must be zero
///        8     4  length   payload bytes, little-endian
///       12     N  payload  UTF-8 text (the command / response grammar of
///                          server/protocol.h, one line without the '\n')
///
/// The header is serialized field-by-field (never memcpy'd from a struct —
/// the padding-serialize contract), so the format is identical on every
/// host. A fixed magic + version byte up front means a client that speaks
/// the wrong protocol (or a torn stream) is detected at the first frame,
/// not after a multi-gigabyte declared length allocates the world: length
/// is validated against the decoder's cap before any buffering happens.
enum class FrameType : uint8_t {
  /// Client -> server: one command line (same grammar ParseCommand accepts).
  kRequest = 1,
  /// Server -> client: the dispatcher's "OK ..." / "ERR ..." response.
  kResponse = 2,
  /// Server -> client: transport-level failure (bad frame, protocol error).
  /// The connection closes after this frame is flushed.
  kError = 3,
  /// Server -> client: typed back-pressure shed — the dispatch queue (or
  /// connection budget) is full. The request was *not* executed; retry
  /// later.
  kBusy = 4,
};

/// Returns a human-readable name for logging ("REQUEST", "BUSY", ...).
const char* FrameTypeName(FrameType type);

inline constexpr uint32_t kFrameMagic = 0x43444254;  // "CDBT" little-endian.
inline constexpr uint8_t kFrameVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 12;

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kRequest;
  std::string payload;
};

/// Renders `payload` as one wire frame (header + payload bytes).
std::string EncodeFrame(FrameType type, std::string_view payload);

/// Incremental frame parser: feed whatever the socket produced — a byte, a
/// torn header, three frames glued together — and pop complete frames as
/// they materialize. The decoder owns the carry-over buffer, so partial
/// reads cost nothing but a memmove-free append.
///
/// Errors (bad magic, unknown version, nonzero reserved bytes, a declared
/// length above `max_payload`) are sticky: the stream is unsynchronized and
/// the connection must be dropped, so every later Next() repeats the error.
class FrameDecoder {
 public:
  /// `max_payload` bounds the declared payload length of a single frame —
  /// the defense against a hostile 4 GB length prefix.
  explicit FrameDecoder(size_t max_payload = 1 << 20)
      : max_payload_(max_payload) {}

  /// Appends raw socket bytes.
  void Feed(const char* data, size_t n);

  /// Pops the next complete frame into `*out`. Returns true when a frame
  /// was produced, false when more bytes are needed; a malformed stream
  /// yields a sticky InvalidArgument.
  util::StatusOr<bool> Next(Frame* out);

  /// Bytes buffered but not yet returned as frames.
  size_t pending_bytes() const { return buffer_.size() - consumed_; }

 private:
  const size_t max_payload_;
  std::string buffer_;
  /// Prefix of buffer_ already handed out as frames; compacted lazily so a
  /// burst of small frames doesn't erase() the buffer head per frame.
  size_t consumed_ = 0;
  util::Status error_ = util::Status::Ok();
};

}  // namespace cdbtune::server::net

#endif  // CDBTUNE_SERVER_NET_FRAME_H_
