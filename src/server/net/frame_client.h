#ifndef CDBTUNE_SERVER_NET_FRAME_CLIENT_H_
#define CDBTUNE_SERVER_NET_FRAME_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "server/net/frame.h"
#include "util/status.h"

namespace cdbtune::server::net {

/// Blocking client for the binary TCP front end — the peer-side counterpart
/// of TcpServer, used by cdbtune_serve's --send mode, the benchmarks, and
/// the tests. Deliberately simple: one synchronous request/response at a
/// time over a connected socket. (It lives in src/server/net/ because raw
/// socket syscalls are sanctioned only there — the blocking-socket lint
/// rule.)
class FrameClient {
 public:
  FrameClient() = default;
  ~FrameClient();

  FrameClient(const FrameClient&) = delete;
  FrameClient& operator=(const FrameClient&) = delete;

  /// Connects to `host:port` (IPv4 dotted quad).
  util::Status Connect(const std::string& host, uint16_t port);

  /// Sends one REQUEST frame and blocks for the server's reply. A RESPONSE
  /// frame returns its payload; a typed BUSY frame maps to
  /// FailedPrecondition (the request was shed, retry later); an ERROR frame
  /// maps to InvalidArgument (protocol error, connection is closing).
  util::StatusOr<std::string> Call(std::string_view request);

  /// Sends one frame of the given type without waiting for a reply.
  util::Status SendFrame(FrameType type, std::string_view payload);

  /// Blocks for the next complete frame from the server.
  util::StatusOr<Frame> ReadFrame();

  /// Writes raw bytes to the socket — the tests' hook for torn, oversized
  /// and garbage frames.
  util::Status SendBytes(std::string_view bytes);

  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

}  // namespace cdbtune::server::net

#endif  // CDBTUNE_SERVER_NET_FRAME_CLIENT_H_
