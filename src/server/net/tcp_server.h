#ifndef CDBTUNE_SERVER_NET_TCP_SERVER_H_
#define CDBTUNE_SERVER_NET_TCP_SERVER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/dispatch.h"
#include "server/net/event_loop.h"
#include "server/net/frame.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace cdbtune::server::net {

struct TcpServerOptions {
  /// IPv4 listen address; "0.0.0.0" serves every interface.
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; the bound port is available via port().
  uint16_t port = 0;
  /// Concurrent-connection budget. Connection max_connections+1 is shed at
  /// accept with a best-effort typed BUSY frame, never queued — the C10K
  /// contract is that overload degrades crisply instead of hoarding fds.
  size_t max_connections = 256;
  /// Per-connection bounded send queue (bytes of encoded frames not yet
  /// accepted by the kernel). A peer that stops draining its socket —
  /// the slow-loris — is dropped the moment a response would push the
  /// backlog past this cap; nothing ever blocks on it. The connection's
  /// kernel send buffer (SO_SNDBUF) is capped at the same value, so such a
  /// peer is shed after a bounded number of replies.
  size_t sendq_bytes = 256 * 1024;
  /// Threads executing dispatched requests (a STEP runs a full stress
  /// test, so these are the "compute" threads; the event loop itself never
  /// blocks on dispatch).
  size_t worker_threads = 4;
  /// Decoded requests waiting for a worker, across all connections. When
  /// full, further requests are answered with a typed BUSY frame instead
  /// of queueing — bounded memory under any client behavior.
  size_t dispatch_queue = 64;
  /// Largest accepted frame payload; a larger *declared* length is a
  /// protocol error detected from the header alone (no buffering).
  size_t max_frame_bytes = 1 << 20;
};

/// Event-driven TCP front end for the tuning server: one epoll reactor
/// thread multiplexing every connection, a fixed worker pool executing
/// dispatched commands, binary length-prefixed framing (frame.h), bounded
/// per-connection send queues with non-blocking writes, and explicit
/// back-pressure (DESIGN.md §13).
///
/// Ownership model (the "event-loop ownership" rule):
///   - All per-connection state (decoder, pending requests, send queue,
///     pause flags) is owned by the loop thread and accessed without locks.
///   - Workers receive (connection id, payload) copies, run the shared
///     Dispatcher, and post the response back via EventLoop::QueueTask; the
///     completion looks the connection up by id and is dropped silently if
///     the peer vanished meanwhile.
///   - `mu_` (lock_rank::kNetFrontEnd) guards only the dispatch work queue,
///     lifecycle flags, and telemetry counters — never connection state.
///
/// Back-pressure state machine, per connection:
///   READING --frame accepted for dispatch--> PAUSED (EPOLLIN off)
///   PAUSED  --response queued, no pending--> READING
///   any     --dispatch queue full----------> typed BUSY frame (request shed)
///   any     --send backlog > sendq_bytes---> connection dropped (counted)
class TcpServer : public TransportStatsSource {
 public:
  TcpServer(const Dispatcher* dispatcher, TcpServerOptions options);
  ~TcpServer() override;

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds the listener, starts the reactor thread and the worker pool.
  util::Status Start();

  /// Blocks until a client requests SHUTDOWN or Stop() is called.
  void WaitForShutdown();

  /// Idempotent graceful stop: halts the reactor, joins every thread,
  /// closes every connection.
  void Stop();

  /// The bound port (resolves option port 0 to the kernel's pick).
  uint16_t port() const { return bound_port_; }

  /// STATUS telemetry scrape; thread-safe.
  TransportStats Scrape() const override;

 private:
  /// Loop-thread-owned connection state; see the ownership model above.
  struct Conn {
    explicit Conn(size_t max_frame_bytes) : decoder(max_frame_bytes) {}

    int fd = -1;
    uint64_t id = 0;
    FrameDecoder decoder;
    /// Requests decoded but not yet handed to a worker (FIFO per
    /// connection: responses keep request order).
    std::deque<std::string> pending;
    /// One request is with a worker; reads stay paused until it returns.
    bool in_flight = false;
    /// Encoded frames not yet accepted by the kernel; `sendq_offset` bytes
    /// of the head are already written (compact on drain).
    std::string sendq;
    size_t sendq_offset = 0;
    bool reads_paused = false;
    /// Flush the send queue, then close (fatal protocol error path).
    bool close_after_flush = false;

    size_t backlog() const { return sendq.size() - sendq_offset; }
  };

  // All private handlers below run on the loop thread only. The bool
  // returns report whether the connection survived the call — a false
  // means it was closed and erased, and the pointer is dead.
  void HandleAccept(uint32_t ready);
  void HandleConn(uint64_t id, uint32_t ready);
  bool ReadFrames(Conn* conn);
  /// Decodes buffered bytes into pending requests (up to the pipelining
  /// cap). Returns false when the connection must take no further input —
  /// closed outright, or poisoned by a malformed stream (error frame
  /// queued, closing after flush). Called from ReadFrames after each
  /// recv() and from PumpDispatch as pending drains: a burst beyond the
  /// cap leaves frames in the decoder with no kernel bytes behind them,
  /// so a read event alone would never finish the burst.
  bool DrainDecoder(Conn* conn);
  bool PumpDispatch(Conn* conn);
  /// Appends one frame; drops the connection (returning false) when the
  /// bounded send queue would overflow.
  bool QueueFrame(Conn* conn, FrameType type, std::string_view payload);
  bool FlushWrites(Conn* conn);
  /// Applies the back-pressure state machine to the fd's interest mask.
  void UpdateInterest(Conn* conn);
  void CloseConn(Conn* conn);
  void OnDispatchDone(uint64_t conn_id, std::string response);

  void WorkerLoop();
  /// Pushes a request for the workers; false when the dispatch queue is
  /// at capacity (the caller sheds with BUSY).
  bool TryEnqueueWork(uint64_t conn_id, std::string request);

  const Dispatcher* dispatcher_;  // Not owned.
  TcpServerOptions options_;

  EventLoop loop_;
  std::thread loop_thread_;
  std::vector<std::thread> workers_;
  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;

  /// Loop-thread-owned registry (unlocked by the ownership rule).
  std::map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 0;

  struct WorkItem {
    uint64_t conn_id = 0;
    std::string request;
  };

  /// Front-end lock (lock_rank::kNetFrontEnd): work queue, lifecycle,
  /// telemetry. Never held across dispatch or any socket syscall.
  mutable util::Mutex mu_{util::lock_rank::kNetFrontEnd, "TcpServer::mu_"};
  util::CondVar work_cv_;
  util::CondVar shutdown_cv_;
  std::deque<WorkItem> work_queue_ CDBTUNE_GUARDED_BY(mu_);
  bool started_ CDBTUNE_GUARDED_BY(mu_) = false;
  bool stopping_ CDBTUNE_GUARDED_BY(mu_) = false;
  bool shutdown_requested_ CDBTUNE_GUARDED_BY(mu_) = false;

  // Telemetry (TransportStats), updated at state transitions.
  size_t open_conns_ CDBTUNE_GUARDED_BY(mu_) = 0;
  uint64_t accepted_ CDBTUNE_GUARDED_BY(mu_) = 0;
  uint64_t shed_busy_ CDBTUNE_GUARDED_BY(mu_) = 0;
  uint64_t read_pauses_ CDBTUNE_GUARDED_BY(mu_) = 0;
  uint64_t sendq_drops_ CDBTUNE_GUARDED_BY(mu_) = 0;
  uint64_t frames_in_ CDBTUNE_GUARDED_BY(mu_) = 0;
  uint64_t frames_out_ CDBTUNE_GUARDED_BY(mu_) = 0;
};

}  // namespace cdbtune::server::net

#endif  // CDBTUNE_SERVER_NET_TCP_SERVER_H_
