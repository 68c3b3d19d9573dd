#include "server/net/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <utility>

#include "util/check.h"
#include "util/logging.h"

namespace cdbtune::server::net {

namespace {

/// Pipelined-request cap per connection: a burst beyond this stays in the
/// kernel's receive buffer (reads pause), so per-connection memory is
/// bounded no matter how fast the client writes.
constexpr size_t kMaxPipelined = 32;

util::Status Errno(const std::string& what) {
  return util::Status::Internal(what + ": " + std::strerror(errno));
}

}  // namespace

TcpServer::TcpServer(const Dispatcher* dispatcher, TcpServerOptions options)
    : dispatcher_(dispatcher), options_(std::move(options)) {}

TcpServer::~TcpServer() { Stop(); }

util::Status TcpServer::Start() {
  {
    util::MutexLock lock(mu_);
    if (started_) {
      return util::Status::FailedPrecondition("TcpServer already started");
    }
    started_ = true;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return util::Status::InvalidArgument("bad IPv4 listen address '" +
                                         options_.host + "'");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  listen_fd_ = fd;
  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("bind " + options_.host + ":" +
                 std::to_string(options_.port));
  }
  const int backlog =
      static_cast<int>(std::min<size_t>(options_.max_connections, 1024));
  if (::listen(fd, backlog) != 0) return Errno("listen");
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    return Errno("getsockname");
  }
  bound_port_ = ntohs(bound.sin_port);

  CDBTUNE_RETURN_IF_ERROR(loop_.Init());
  CDBTUNE_RETURN_IF_ERROR(loop_.AddChannel(
      listen_fd_, Ready::kRead, [this](uint32_t ready) { HandleAccept(ready); }));
  loop_thread_ = std::thread([this] { loop_.Run(); });
  workers_.reserve(options_.worker_threads);
  for (size_t i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return util::Status::Ok();
}

void TcpServer::HandleAccept(uint32_t ready) {
  if (ready & Ready::kError) return;  // Listener error; Stop will clean up.
  while (true) {
    int cfd = ::accept4(listen_fd_, nullptr, nullptr,
                        SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      // EAGAIN: drained the accept queue. Anything else is transient
      // (ECONNABORTED, EMFILE...) — keep the loop alive either way.
      return;
    }
    if (conns_.size() >= options_.max_connections) {
      // Shed, never queue: a typed BUSY frame tells the client this is
      // back-pressure (retry later), not a protocol failure. The write is
      // best-effort and non-blocking — a 40-byte frame into a fresh
      // socket's empty buffer cannot block, and if it somehow fails the
      // close alone carries the message.
      const std::string busy =
          EncodeFrame(FrameType::kBusy, "connection budget exhausted");
      (void)::send(cfd, busy.data(), busy.size(),
                   MSG_DONTWAIT | MSG_NOSIGNAL);
      ::close(cfd);
      util::MutexLock lock(mu_);
      ++shed_busy_;
      continue;
    }
    int one = 1;
    (void)::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Cap the kernel's send buffer at the send queue's size too. Loopback
    // autotuning otherwise grows it to megabytes, so a peer that stops
    // reading would pin that much kernel memory, and shedding it at
    // sendq_bytes would take hundreds of thousands of replies first.
    const int sndbuf = static_cast<int>(
        std::min<size_t>(options_.sendq_bytes, INT_MAX));
    (void)::setsockopt(cfd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
    const uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Conn>(options_.max_frame_bytes);
    conn->fd = cfd;
    conn->id = id;
    util::Status added = loop_.AddChannel(
        cfd, Ready::kRead, [this, id](uint32_t r) { HandleConn(id, r); });
    if (!added.ok()) {
      CDBTUNE_LOG(Warning) << "AddChannel: " << added.ToString();
      ::close(cfd);
      continue;
    }
    conns_.emplace(id, std::move(conn));
    util::MutexLock lock(mu_);
    ++accepted_;
    ++open_conns_;
  }
}

void TcpServer::HandleConn(uint64_t id, uint32_t ready) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;  // Torn down earlier in this wave.
  Conn* conn = it->second.get();
  if (ready & Ready::kError) {
    CloseConn(conn);
    return;
  }
  if (ready & Ready::kWrite) {
    if (!FlushWrites(conn)) return;
  }
  if (ready & Ready::kRead) {
    if (!ReadFrames(conn)) return;
  }
}

bool TcpServer::ReadFrames(Conn* conn) {
  char chunk[16384];
  while (conn->pending.size() < kMaxPipelined) {
    ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(conn);
      return false;
    }
    if (n == 0) {  // Peer closed its half; nothing more will arrive.
      CloseConn(conn);
      return false;
    }
    conn->decoder.Feed(chunk, static_cast<size_t>(n));
    if (!DrainDecoder(conn)) return false;
  }
  return PumpDispatch(conn);
}

bool TcpServer::DrainDecoder(Conn* conn) {
  uint64_t decoded = 0;
  util::Status poison = util::Status::Ok();
  while (conn->pending.size() < kMaxPipelined) {
    Frame frame;
    auto got = conn->decoder.Next(&frame);
    if (!got.ok()) {
      poison = got.status();
      break;
    }
    if (!*got) break;  // Need more bytes.
    if (frame.type != FrameType::kRequest) {
      poison = util::Status::InvalidArgument(
          std::string("unexpected client frame type ") +
          FrameTypeName(frame.type));
      break;
    }
    ++decoded;
    conn->pending.push_back(std::move(frame.payload));
  }
  if (decoded > 0) {
    util::MutexLock lock(mu_);
    frames_in_ += decoded;
  }
  if (poison.ok()) return true;
  // Unsynchronized stream: report once, drop everything not yet dispatched,
  // flush, close. QueueFrame may itself drop the connection (send queue
  // full) — either way this connection takes no further input.
  conn->pending.clear();
  if (!QueueFrame(conn, FrameType::kError, poison.message())) return false;
  conn->close_after_flush = true;
  if (!FlushWrites(conn)) return false;
  UpdateInterest(conn);
  return false;
}

bool TcpServer::PumpDispatch(Conn* conn) {
  while (!conn->in_flight) {
    if (conn->pending.empty()) {
      // A pipelined burst beyond the cap parked frames in the decoder; no
      // read event will ever deliver them (the kernel side is drained), so
      // decode the leftovers now that pending has room again.
      if (conn->decoder.pending_bytes() < kFrameHeaderBytes) break;
      if (!DrainDecoder(conn)) return false;
      if (conn->pending.empty()) break;
    }
    std::string request = std::move(conn->pending.front());
    conn->pending.pop_front();
    if (TryEnqueueWork(conn->id, std::move(request))) {
      conn->in_flight = true;
    } else {
      // Dispatch queue full: shed this request with a typed BUSY frame
      // (the request was NOT executed) and keep the connection.
      {
        util::MutexLock lock(mu_);
        ++shed_busy_;
      }
      if (!QueueFrame(conn, FrameType::kBusy,
                      "dispatch queue full; retry later")) {
        return false;
      }
    }
  }
  UpdateInterest(conn);
  return true;
}

bool TcpServer::QueueFrame(Conn* conn, FrameType type,
                           std::string_view payload) {
  const std::string wire = EncodeFrame(type, payload);
  if (conn->backlog() + wire.size() > options_.sendq_bytes) {
    // The peer is not draining its socket (slow-loris) — shed it. Nothing
    // in this path ever blocks or buffers beyond the cap.
    {
      util::MutexLock lock(mu_);
      ++sendq_drops_;
    }
    CloseConn(conn);
    return false;
  }
  conn->sendq.append(wire);
  {
    util::MutexLock lock(mu_);
    ++frames_out_;
  }
  return FlushWrites(conn);
}

bool TcpServer::FlushWrites(Conn* conn) {
  while (conn->backlog() > 0) {
    ssize_t n = ::send(conn->fd, conn->sendq.data() + conn->sendq_offset,
                       conn->backlog(), MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(conn);
      return false;
    }
    conn->sendq_offset += static_cast<size_t>(n);
  }
  if (conn->backlog() == 0) {
    conn->sendq.clear();
    conn->sendq_offset = 0;
    if (conn->close_after_flush) {
      CloseConn(conn);
      return false;
    }
  }
  UpdateInterest(conn);
  return true;
}

void TcpServer::UpdateInterest(Conn* conn) {
  // Back-pressure state machine (DESIGN.md §13): reads stay on only while
  // the connection is fully caught up — no request with a worker and no
  // decoded-but-undispatched requests. The send backlog does not pause
  // reads: a peer that keeps sending but never drains must grow its queue
  // to sendq_bytes and be shed by QueueFrame, not sit parked on a slot with
  // its requests stuck in the kernel.
  const bool want_read = !conn->in_flight && conn->pending.empty() &&
                         !conn->close_after_flush;
  const bool want_write = conn->backlog() > 0;
  if (!want_read && !conn->reads_paused) {
    conn->reads_paused = true;
    util::MutexLock lock(mu_);
    ++read_pauses_;
  } else if (want_read) {
    conn->reads_paused = false;
  }
  uint32_t interest = 0;
  if (want_read) interest |= Ready::kRead;
  if (want_write) interest |= Ready::kWrite;
  util::Status set = loop_.SetInterest(conn->fd, interest);
  if (!set.ok()) {
    CDBTUNE_LOG(Debug) << "SetInterest: " << set.ToString();
  }
}

void TcpServer::CloseConn(Conn* conn) {
  loop_.RemoveChannel(conn->fd);
  ::close(conn->fd);
  const uint64_t id = conn->id;
  conns_.erase(id);  // `conn` is dead past this line.
  util::MutexLock lock(mu_);
  --open_conns_;
}

void TcpServer::OnDispatchDone(uint64_t conn_id, std::string response) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // Peer vanished while we worked.
  Conn* conn = it->second.get();
  conn->in_flight = false;
  if (!QueueFrame(conn, FrameType::kResponse, response)) return;
  (void)PumpDispatch(conn);
}

bool TcpServer::TryEnqueueWork(uint64_t conn_id, std::string request) {
  util::MutexLock lock(mu_);
  if (stopping_) return false;
  if (work_queue_.size() >= options_.dispatch_queue) return false;
  work_queue_.push_back(WorkItem{conn_id, std::move(request)});
  work_cv_.NotifyOne();
  return true;
}

void TcpServer::WorkerLoop() {
  while (true) {
    WorkItem item;
    {
      util::MutexLock lock(mu_);
      while (!stopping_ && work_queue_.empty()) work_cv_.Wait(mu_);
      if (stopping_) return;
      item = std::move(work_queue_.front());
      work_queue_.pop_front();
    }
    DispatchResult result = dispatcher_->Dispatch(item.request);
    if (result.shutdown) {
      util::MutexLock lock(mu_);
      shutdown_requested_ = true;
      shutdown_cv_.NotifyAll();
    }
    loop_.QueueTask(
        [this, id = item.conn_id,
         response = std::move(result.response)]() mutable {
          OnDispatchDone(id, std::move(response));
        });
  }
}

void TcpServer::WaitForShutdown() {
  util::MutexLock lock(mu_);
  while (!shutdown_requested_ && !stopping_) shutdown_cv_.Wait(mu_);
}

void TcpServer::Stop() {
  {
    util::MutexLock lock(mu_);
    if (!started_ || stopping_) return;
    stopping_ = true;
    work_cv_.NotifyAll();
    shutdown_cv_.NotifyAll();
  }
  loop_.Stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // Post-join teardown: the loop thread is gone, so Stop() owns the
  // connection registry now (the only other writer was the loop).
  for (auto& [id, conn] : conns_) ::close(conn->fd);
  conns_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  util::MutexLock lock(mu_);
  open_conns_ = 0;
}

TransportStats TcpServer::Scrape() const {
  util::MutexLock lock(mu_);
  TransportStats stats;
  stats.name = "tcp";
  stats.connections = open_conns_;
  stats.accepted = accepted_;
  stats.shed_busy = shed_busy_;
  stats.read_pauses = read_pauses_;
  stats.sendq_drops = sendq_drops_;
  stats.frames_in = frames_in_;
  stats.frames_out = frames_out_;
  return stats;
}

}  // namespace cdbtune::server::net
