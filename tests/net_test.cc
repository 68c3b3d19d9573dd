// Tests for the event-driven TCP front end (src/server/net/): framing
// robustness against torn/oversized/garbage streams, the epoll EventLoop's
// ownership and task-queue contract, and the TcpServer's back-pressure
// behavior — typed BUSY sheds, slow-loris drops, and a stalled or killed
// client never blocking other sessions.
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "env/simulated_cdb.h"
#include "server/dispatch.h"
#include "server/net/event_loop.h"
#include "server/net/frame.h"
#include "server/net/frame_client.h"
#include "server/net/tcp_server.h"
#include "server/tuning_server.h"
#include "tuner/cdbtune.h"

namespace cdbtune::server {
namespace {

using net::EncodeFrame;
using net::Frame;
using net::FrameClient;
using net::FrameDecoder;
using net::FrameType;

// --- Framing -----------------------------------------------------------------

TEST(FrameTest, EncodeThenDecodeRoundTrips) {
  FrameDecoder decoder;
  const std::string wire = EncodeFrame(FrameType::kRequest, "PING") +
                           EncodeFrame(FrameType::kResponse, "OK pong=1") +
                           EncodeFrame(FrameType::kBusy, "") +
                           EncodeFrame(FrameType::kError, "bad");
  decoder.Feed(wire.data(), wire.size());

  Frame frame;
  auto got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(*got);
  EXPECT_EQ(frame.type, FrameType::kRequest);
  EXPECT_EQ(frame.payload, "PING");
  ASSERT_TRUE(*decoder.Next(&frame));
  EXPECT_EQ(frame.type, FrameType::kResponse);
  EXPECT_EQ(frame.payload, "OK pong=1");
  ASSERT_TRUE(*decoder.Next(&frame));
  EXPECT_EQ(frame.type, FrameType::kBusy);
  EXPECT_TRUE(frame.payload.empty());
  ASSERT_TRUE(*decoder.Next(&frame));
  EXPECT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(frame.payload, "bad");

  got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(*got) << "drained decoder must report need-more-bytes";
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(FrameTest, DecoderReassemblesByteAtATimeTornStream) {
  // The worst torn-read case: every byte of a three-frame stream arrives in
  // its own Feed. No byte boundary may confuse the decoder.
  const std::string wire =
      EncodeFrame(FrameType::kRequest, "OPEN engine=sim") +
      EncodeFrame(FrameType::kRequest, "") +
      EncodeFrame(FrameType::kRequest, std::string(300, 'x'));
  FrameDecoder decoder;
  std::vector<std::string> payloads;
  for (char byte : wire) {
    decoder.Feed(&byte, 1);
    Frame frame;
    auto got = decoder.Next(&frame);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    if (*got) payloads.push_back(frame.payload);
  }
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], "OPEN engine=sim");
  EXPECT_EQ(payloads[1], "");
  EXPECT_EQ(payloads[2], std::string(300, 'x'));
}

TEST(FrameTest, DecoderRejectsBadMagicAndStaysPoisoned) {
  FrameDecoder decoder;
  std::string wire = EncodeFrame(FrameType::kRequest, "PING");
  wire[0] = 'X';  // Corrupt the magic.
  decoder.Feed(wire.data(), wire.size());
  Frame frame;
  auto got = decoder.Next(&frame);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(got.status().message().find("magic"), std::string::npos)
      << got.status().ToString();
  // Sticky: even fresh valid bytes cannot resynchronize the stream.
  const std::string good = EncodeFrame(FrameType::kRequest, "PING");
  decoder.Feed(good.data(), good.size());
  EXPECT_FALSE(decoder.Next(&frame).ok());
}

TEST(FrameTest, DecoderRejectsBadVersionAndReservedBytes) {
  {
    FrameDecoder decoder;
    std::string wire = EncodeFrame(FrameType::kRequest, "PING");
    wire[4] = 99;  // Unknown version.
    decoder.Feed(wire.data(), wire.size());
    Frame frame;
    auto got = decoder.Next(&frame);
    ASSERT_FALSE(got.ok());
    EXPECT_NE(got.status().message().find("version"), std::string::npos);
  }
  {
    FrameDecoder decoder;
    std::string wire = EncodeFrame(FrameType::kRequest, "PING");
    wire[6] = 1;  // Nonzero reserved bytes.
    decoder.Feed(wire.data(), wire.size());
    Frame frame;
    EXPECT_FALSE(decoder.Next(&frame).ok());
  }
}

TEST(FrameTest, DecoderRejectsOversizedDeclaredLengthFromHeaderAlone) {
  // A hostile length prefix must be rejected from the 12 header bytes —
  // before any payload arrives, so nothing is ever buffered for it.
  FrameDecoder decoder(/*max_payload=*/1024);
  std::string wire = EncodeFrame(FrameType::kRequest, "x");
  wire[8] = static_cast<char>(0xFF);  // length = 0xFFFFFF01: ~4 GB declared.
  wire[9] = static_cast<char>(0xFF);
  wire[10] = static_cast<char>(0xFF);
  wire[11] = static_cast<char>(0xFF);
  decoder.Feed(wire.data(), net::kFrameHeaderBytes);  // Header only.
  Frame frame;
  auto got = decoder.Next(&frame);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("length"), std::string::npos)
      << got.status().ToString();
}

TEST(FrameTest, DecoderAcceptsPayloadAtExactlyTheCap) {
  FrameDecoder decoder(/*max_payload=*/64);
  const std::string wire =
      EncodeFrame(FrameType::kRequest, std::string(64, 'y'));
  decoder.Feed(wire.data(), wire.size());
  Frame frame;
  auto got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(*got);
  EXPECT_EQ(frame.payload.size(), 64u);
}

// --- EventLoop ---------------------------------------------------------------

TEST(EventLoopTest, RunsQueuedTasksOnLoopThreadAndServesChannels) {
  net::EventLoop loop;
  ASSERT_TRUE(loop.Init().ok());
  std::thread runner([&] { loop.Run(); });

  // Cross-thread tasks execute on the loop thread, in order.
  std::atomic<int> ran{0};
  std::atomic<bool> on_loop_thread{false};
  loop.QueueTask([&] {
    on_loop_thread.store(loop.IsLoopThread());
    ran.fetch_add(1);
  });

  // A pipe channel: registration must happen on the loop thread, so it goes
  // through the task queue; the read handler fires when bytes arrive.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::atomic<int> reads{0};
  loop.QueueTask([&] {
    ASSERT_TRUE(loop.AddChannel(fds[0], net::Ready::kRead,
                                [&](uint32_t ready) {
                                  EXPECT_TRUE(ready & net::Ready::kRead);
                                  char buf[8];
                                  (void)!::read(fds[0], buf, sizeof(buf));
                                  reads.fetch_add(1);
                                })
                    .ok());
  });
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  for (int i = 0; i < 500 && (ran.load() == 0 || reads.load() == 0); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(ran.load(), 1);
  EXPECT_TRUE(on_loop_thread.load());
  EXPECT_GE(reads.load(), 1);

  loop.QueueTask([&] { loop.RemoveChannel(fds[0]); });
  loop.Stop();
  runner.join();
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- TcpServer ---------------------------------------------------------------

/// One standard model trained once and shared by every test in this binary
/// (its weights are only ever cloned, never mutated).
tuner::CdbTuner& SharedTrainedTuner() {
  struct Model {
    std::unique_ptr<env::SimulatedCdb> db;
    std::unique_ptr<tuner::CdbTuner> tuner;
  };
  static Model* model = [] {
    auto* m = new Model;
    m->db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 71);
    auto space = knobs::KnobSpace::AllTunable(&m->db->registry());
    tuner::CdbTuneOptions options;
    options.max_offline_steps = 40;
    options.steps_per_episode = 10;
    options.seed = 71;
    m->tuner = std::make_unique<tuner::CdbTuner>(m->db.get(), space, options);
    m->tuner->OfflineTrain(workload::SysbenchReadWrite());
    return m;
  }();
  return *model->tuner;
}

/// TuningServer + Dispatcher + TcpServer wired the way cdbtune_serve does
/// it, on an ephemeral port.
struct TcpFixture {
  TuningServer server;
  Dispatcher dispatcher{&server};
  std::unique_ptr<net::TcpServer> front;

  explicit TcpFixture(net::TcpServerOptions options = {}) {
    EXPECT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
    front = std::make_unique<net::TcpServer>(&dispatcher, options);
    dispatcher.RegisterTransport(front.get());
  }

  util::Status Start() { return front->Start(); }
  uint16_t port() const { return front->port(); }
};

/// Returns a connected client, or null (with a failed EXPECT) on error.
std::unique_ptr<FrameClient> ConnectTo(const TcpFixture& fixture) {
  auto client = std::make_unique<FrameClient>();
  util::Status connected = client->Connect("127.0.0.1", fixture.port());
  EXPECT_TRUE(connected.ok()) << connected.ToString();
  if (!connected.ok()) return nullptr;
  return client;
}

TEST(TcpServerTest, ServesSessionLifecycleOverBinaryFraming) {
  TcpFixture fixture;
  ASSERT_TRUE(fixture.Start().ok());
  auto client = ConnectTo(fixture);
  ASSERT_NE(client, nullptr);

  auto pong = client->Call("PING");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(*pong, "OK pong=1");

  auto opened = client->Call("OPEN engine=sim seed=7 steps=2");
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->rfind("OK id=0", 0), 0u) << *opened;
  auto stepped = client->Call("STEP id=0 n=2");
  ASSERT_TRUE(stepped.ok());
  EXPECT_EQ(stepped->rfind("OK id=0 step=2", 0), 0u) << *stepped;

  // STATUS over TCP reports this transport's own telemetry.
  auto status = client->Call("STATUS");
  ASSERT_TRUE(status.ok());
  EXPECT_NE(status->find("tcp_conns=1"), std::string::npos) << *status;
  EXPECT_NE(status->find("tcp_accepted=1"), std::string::npos) << *status;
  EXPECT_NE(status->find("tcp_frames_in="), std::string::npos) << *status;

  auto closed = client->Call("CLOSE id=0");
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed->rfind("OK id=0", 0), 0u) << *closed;

  // SHUTDOWN over the binary transport unblocks WaitForShutdown.
  auto bye = client->Call("SHUTDOWN");
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(*bye, "OK bye=1");
  fixture.front->WaitForShutdown();
  fixture.server.DrainAndStop();
  fixture.front->Stop();
}

TEST(TcpServerTest, PipeliningBeyondTheCapStillAnswersEveryRequest) {
  // Regression for the decoder-stall hazard: a burst larger than the
  // per-connection pipelining cap arrives in one write, so the tail frames
  // sit in the decoder buffer with no kernel bytes behind them — the server
  // must keep answering as dispatch drains, not wait for a read event that
  // will never come.
  TcpFixture fixture;
  ASSERT_TRUE(fixture.Start().ok());
  auto client = ConnectTo(fixture);
  ASSERT_NE(client, nullptr);

  constexpr int kBurst = 100;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    burst += EncodeFrame(FrameType::kRequest, "PING");
  }
  ASSERT_TRUE(client->SendBytes(burst).ok());
  for (int i = 0; i < kBurst; ++i) {
    auto frame = client->ReadFrame();
    ASSERT_TRUE(frame.ok()) << "reply " << i << ": "
                            << frame.status().ToString();
    ASSERT_EQ(frame->type, FrameType::kResponse) << "reply " << i;
    EXPECT_EQ(frame->payload, "OK pong=1");
  }
  fixture.front->Stop();
}

TEST(TcpServerTest, ShedsConnectionsOverBudgetWithTypedBusyFrame) {
  net::TcpServerOptions options;
  options.max_connections = 1;
  TcpFixture fixture(options);
  ASSERT_TRUE(fixture.Start().ok());

  auto first = ConnectTo(fixture);
  ASSERT_NE(first, nullptr);
  ASSERT_TRUE(first->Call("PING").ok());  // First connection is serving.

  // The second connection must be shed with a typed BUSY frame, then
  // closed — never queued, never blocking the reactor.
  auto second = ConnectTo(fixture);
  ASSERT_NE(second, nullptr);
  auto frame = second->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kBusy);
  EXPECT_FALSE(second->ReadFrame().ok()) << "shed connection must close";

  // The surviving connection is unaffected, and telemetry shows the shed.
  auto status = first->Call("STATUS");
  ASSERT_TRUE(status.ok());
  EXPECT_NE(status->find("tcp_shed=1"), std::string::npos) << *status;
  fixture.front->Stop();
}

TEST(TcpServerTest, MalformedStreamGetsErrorFrameThenClose) {
  TcpFixture fixture;
  ASSERT_TRUE(fixture.Start().ok());
  auto client = ConnectTo(fixture);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->SendBytes("GET / HTTP/1.1\r\n\r\n").ok());
  auto frame = client->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kError);
  EXPECT_NE(frame->payload.find("magic"), std::string::npos)
      << frame->payload;
  EXPECT_FALSE(client->ReadFrame().ok()) << "poisoned connection must close";
  fixture.front->Stop();
}

TEST(TcpServerTest, OversizedDeclaredLengthIsRejectedBeforeBuffering) {
  net::TcpServerOptions options;
  options.max_frame_bytes = 1024;
  TcpFixture fixture(options);
  ASSERT_TRUE(fixture.Start().ok());
  auto client = ConnectTo(fixture);
  ASSERT_NE(client, nullptr);
  std::string header = EncodeFrame(FrameType::kRequest, "");
  header[8] = static_cast<char>(0xFF);  // Declare a ~4 GB payload.
  header[9] = static_cast<char>(0xFF);
  header[10] = static_cast<char>(0xFF);
  header[11] = static_cast<char>(0x7F);
  ASSERT_TRUE(client->SendBytes(header).ok());
  auto frame = client->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kError);
  EXPECT_NE(frame->payload.find("length"), std::string::npos)
      << frame->payload;
  fixture.front->Stop();
}

TEST(TcpServerTest, SlowLorisClientIsDroppedWithoutBlockingOthers) {
  // A client that floods requests and never drains its replies must be
  // dropped the moment its bounded send queue would overflow — while other
  // connections keep being served the whole time.
  net::TcpServerOptions options;
  options.sendq_bytes = 512;
  TcpFixture fixture(options);
  ASSERT_TRUE(fixture.Start().ok());

  auto loris = ConnectTo(fixture);
  ASSERT_NE(loris, nullptr);
  // Shrink the loris's receive window so the server's kernel-side buffer
  // fills fast and responses land in the bounded send queue.
  int tiny = 1;
  ASSERT_EQ(::setsockopt(loris->fd(), SOL_SOCKET, SO_RCVBUF, &tiny,
                         sizeof(tiny)),
            0);
  // The server caps each connection's kernel send buffer at sendq_bytes,
  // so the loris's replies fill the kernel's side and then the 512-byte
  // queue within a few hundred PINGs, while the server still holds
  // thousands of the loris's unread requests. An autotuned buffer would
  // absorb megabytes of replies first; the server could then run out of
  // requests while the loris's zero window discards the server's window
  // updates, and the drop would never come. The wait below is bounded and
  // prints the last STATUS if the loris is never shed; the ctest TIMEOUT
  // on this binary stays as the hang guard.
  std::thread flood([&] {
    // Write request frames until the socket is shut down or reset.
    const std::string ping = EncodeFrame(FrameType::kRequest, "PING");
    std::string chunk;
    for (int i = 0; i < 64; ++i) chunk += ping;
    while (loris->SendBytes(chunk).ok()) {
    }
  });

  // Meanwhile a well-behaved client keeps getting served, and eventually
  // observes the loris's sendq overflow in the transport telemetry.
  auto observer = ConnectTo(fixture);
  ASSERT_NE(observer, nullptr);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  bool dropped = false;
  std::string last_status;
  while (!dropped) {
    auto status = observer->Call("STATUS");
    if (!status.ok()) {
      ADD_FAILURE() << "observer not served: " << status.status().ToString();
      break;
    }
    last_status = *status;
    dropped = status->find("tcp_sendq_drops=0") == std::string::npos;
    if (dropped) break;
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "loris not shed within 120 s; last STATUS: "
                    << last_status;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // The server's close reaches a sender stalled on a zero window only at
  // its next window probe, which backs off for seconds; shutting the
  // socket down locally fails the blocked send at once.
  ::shutdown(loris->fd(), SHUT_RDWR);
  flood.join();
  fixture.front->Stop();
}

TEST(TcpServerTest, KilledClientMidEpisodeDoesNotDisturbOtherSessions) {
  TcpFixture fixture;
  ASSERT_TRUE(fixture.Start().ok());

  auto doomed = ConnectTo(fixture);
  ASSERT_NE(doomed, nullptr);
  auto opened = doomed->Call("OPEN engine=sim seed=11 steps=3");
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->rfind("OK id=0", 0), 0u) << *opened;
  // Fire a STEP and vanish before the response: the worker's completion
  // must be dropped silently when the connection id no longer resolves.
  ASSERT_TRUE(doomed->SendFrame(FrameType::kRequest, "STEP id=0").ok());
  doomed->Close();

  auto survivor = ConnectTo(fixture);
  ASSERT_NE(survivor, nullptr);
  auto pong = survivor->Call("PING");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(*pong, "OK pong=1");
  // The session itself outlives its transport connection (sessions are
  // owned by the TuningServer, not the socket): a new connection can
  // observe and close it.
  auto status = survivor->Call("STATUS id=0");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->rfind("OK id=0", 0), 0u) << *status;
  // The orphaned STEP may still be running on a worker, and CLOSE refuses a
  // busy session (FAILED_PRECONDITION), so let that step finish first.
  for (int poll = 0;
       poll < 5000 && status->find(" busy=1") != std::string::npos; ++poll) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    status = survivor->Call("STATUS id=0");
    ASSERT_TRUE(status.ok());
  }
  auto closed = survivor->Call("CLOSE id=0");
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed->rfind("OK id=0", 0), 0u) << *closed;
  fixture.front->Stop();
}

// Transport determinism: the same session spec stepped over the binary TCP
// transport and through the in-process dispatcher must produce bitwise
// identical step responses — the wire format adds no nondeterminism.
TEST(TcpServerTest, EpisodesOverTcpMatchInProcessBitwise) {
  const std::vector<std::string> script = {
      "OPEN engine=sim workload=sysbench_rw seed=42 steps=3",
      "STEP id=0", "STEP id=0", "STEP id=0", "STATUS id=0",
      "BEST_CONFIG id=0", "CLOSE id=0"};

  // In-process reference.
  TuningServer reference;
  ASSERT_TRUE(reference.AdoptModel(SharedTrainedTuner()).ok());
  Dispatcher in_process(&reference);
  std::vector<std::string> expected;
  for (const std::string& line : script) {
    expected.push_back(in_process.Dispatch(line).response);
  }

  // The same script over epoll/TCP with four concurrent idle connections
  // sharing the reactor (they must not perturb the served session).
  TcpFixture fixture;
  ASSERT_TRUE(fixture.Start().ok());
  std::vector<std::unique_ptr<FrameClient>> idle;
  for (int i = 0; i < 4; ++i) {
    auto extra = std::make_unique<FrameClient>();
    ASSERT_TRUE(extra->Connect("127.0.0.1", fixture.port()).ok());
    ASSERT_TRUE(extra->Call("PING").ok());
    idle.push_back(std::move(extra));
  }
  auto client = ConnectTo(fixture);
  ASSERT_NE(client, nullptr);
  for (size_t i = 0; i < script.size(); ++i) {
    auto reply = client->Call(script[i]);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(*reply, expected[i]) << "diverged on: " << script[i];
  }
  fixture.front->Stop();
}

// Regression for the front end's lost-wakeup hazard: the daemon parks its
// main thread in WaitForShutdown() while workers serve requests. With one
// condition variable shared by both, a notify_one for new work could wake
// the shutdown waiter instead of a worker; the waiter re-sleeps, the wakeup
// is consumed, and the request's client hangs forever. work_cv_ and
// shutdown_cv_ are separate so this cannot happen.
TEST(TcpServerTest, ServesClientsWhileWaitForShutdownBlocks) {
  TcpFixture fixture;
  ASSERT_TRUE(fixture.Start().ok());
  std::thread waiter([&] { fixture.front->WaitForShutdown(); });
  // Joins the waiter on every exit path, failed assertions included: Stop()
  // wakes it even when SHUTDOWN never got through.
  struct JoinOnExit {
    TcpFixture& fixture;
    std::thread& waiter;
    ~JoinOnExit() {
      fixture.front->Stop();
      waiter.join();
    }
  } join_on_exit{fixture, waiter};

  for (int i = 0; i < 200; ++i) {
    auto client = ConnectTo(fixture);
    ASSERT_NE(client, nullptr);
    // A lost wakeup hangs the reply forever; bound the wait so the lost case
    // fails instead of wedging the suite.
    timeval timeout{.tv_sec = 5, .tv_usec = 0};
    ASSERT_EQ(::setsockopt(client->fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout)),
              0);
    auto reply = client->Call("PING");
    ASSERT_TRUE(reply.ok()) << "connection " << i
                            << " never served: " << reply.status().ToString();
    EXPECT_EQ(*reply, "OK pong=1");
  }

  auto client = ConnectTo(fixture);
  ASSERT_NE(client, nullptr);
  auto bye = client->Call("SHUTDOWN");
  ASSERT_TRUE(bye.ok()) << bye.status().ToString();
  EXPECT_EQ(*bye, "OK bye=1");
  fixture.server.DrainAndStop();
}

TEST(TcpServerTest, StopWithIdleConnectedClientJoinsAndClientReadsEof) {
  TcpFixture fixture;
  ASSERT_TRUE(fixture.Start().ok());
  auto client = ConnectTo(fixture);
  ASSERT_NE(client, nullptr);
  // Prove the reactor has registered the connection before stopping.
  ASSERT_TRUE(client->Call("PING").ok());
  // The client never sends another byte; Stop must still join every thread
  // and close the connection, which the client observes as EOF.
  fixture.front->Stop();
  timeval timeout{.tv_sec = 5, .tv_usec = 0};
  ASSERT_EQ(::setsockopt(client->fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  char byte = 0;
  EXPECT_EQ(::recv(client->fd(), &byte, 1, 0), 0) << "expected EOF";
}

}  // namespace
}  // namespace cdbtune::server
