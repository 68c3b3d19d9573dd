// Multi-session tuning server demo — the paper's train-once / tune-many
// deployment (Section 2.1, Figure 2) as a daemon.
//
//   $ ./cdbtune_serve                 # in-process demo: 8 concurrent sessions
//   $ ./cdbtune_serve --listen HOST:PORT [--checkpoint PATH] [--restore]
//                     [--autosave N] [--safety on|off] [--safety-margin F]
//                     [--safety-k N] [--safety-tr F] [--safety-drift F]
//                     [--max-conns N] [--sendq-bytes N]
//                                     # daemon on the epoll/TCP front end
//                                     # (port 0 picks an ephemeral port; the
//                                     #  "listening on tcp" line reports it)
//   $ ./cdbtune_serve --send HOST:PORT 'OPEN engine=sim' 'STEP id=0' ...
//                                     # one-shot client: send lines, print replies
//
// Every flag value is parsed in full and range-checked; a malformed one
// exits with status 2 before any work starts.
//
// With --checkpoint the daemon autosaves its full state (model, pool, every
// open session) every N rounds (default 1); --restore rebuilds the server
// from that checkpoint instead of training a fresh model — kill -9 the
// daemon mid-run, restart with --restore, and the sessions resume exactly
// where the last completed round left them.
//
// The demo trains one standard model, then serves 8 tuning sessions (6 on
// the analytic simulator, 2 on the real mini storage engine) three ways:
//   1. solo     — the classic CdbTuner::OnlineTune loop, one tenant at a time;
//   2. serve/4  — all 8 multiplexed through the TuningServer, 4 threads;
//   3. serve/1  — the same server run again single-threaded.
// It checks that every served session reaches the solo run's tuned
// throughput (within 2% measurement tolerance) and that serve/4 and serve/1
// agree bitwise — the determinism contract surviving concurrency. It then
// exercises REBUILD: a reshaped agent warm-started from the server's
// experience pool must out-tune the same architecture starting cold.
#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "engine/mini_cdb.h"
#include "env/simulated_cdb.h"
#include "server/dispatch.h"
#include "server/net/frame_client.h"
#include "server/net/tcp_server.h"
#include "server/tuning_server.h"
#include "tuner/cdbtune.h"
#include "util/thread_pool.h"

namespace {

using namespace cdbtune;

/// Where the solo loop's tenants load their private copies of the model.
constexpr const char* kModelPath = "/tmp/cdbtune_serve_model";

/// The demo tenants: mixed engines, workloads, hardware shapes and seeds.
std::vector<server::SessionSpec> DemoSpecs() {
  std::vector<server::SessionSpec> specs;
  auto add = [&](const std::string& engine, workload::WorkloadSpec workload,
                 env::HardwareSpec hardware, uint64_t seed) {
    server::SessionSpec spec;
    spec.engine = engine;
    spec.workload = std::move(workload);
    spec.hardware = std::move(hardware);
    spec.seed = seed;
    spec.max_steps = 5;
    if (engine == "mini") {
      spec.mini_table_rows = 20000;
      spec.stress_duration_s = 60.0;  // Real execution: keep the demo brisk.
    }
    return specs.push_back(std::move(spec));
  };
  add("sim", workload::SysbenchReadWrite(), env::CdbA(), 101);
  add("sim", workload::SysbenchReadOnly(), env::CdbB(), 102);
  add("sim", workload::SysbenchWriteOnly(), env::CdbC(), 103);
  add("sim", workload::Tpcc(), env::CdbC(), 104);
  add("sim", workload::Ycsb(), env::CdbD(), 105);
  add("sim", workload::Tpch(), env::CdbE(), 106);
  add("mini", workload::SysbenchReadWrite(), env::CdbA(), 107);
  add("mini", workload::SysbenchWriteOnly(), env::CdbA(), 108);
  return specs;
}

/// The trained standard model plus the instance it trained on (the tuner
/// keeps a pointer to its database, so the two live together).
struct StandardModel {
  std::unique_ptr<env::SimulatedCdb> db;
  std::unique_ptr<tuner::CdbTuner> tuner;
};

/// Trains the standard model once (train-once half).
StandardModel TrainStandardModel(int offline_steps) {
  StandardModel model;
  model.db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 41);
  auto space = knobs::KnobSpace::AllTunable(&model.db->registry());
  tuner::CdbTuneOptions options;
  options.max_offline_steps = offline_steps;
  options.seed = 41;
  model.tuner =
      std::make_unique<tuner::CdbTuner>(model.db.get(), space, options);
  auto offline = model.tuner->OfflineTrain(workload::SysbenchReadWrite());
  std::printf("standard model: %d offline steps, tps %.0f -> %.0f\n",
              offline.iterations, offline.initial.throughput,
              offline.best.throughput);
  return model;
}

std::unique_ptr<env::DbInterface> MakeSpecDb(const server::SessionSpec& spec) {
  if (spec.engine == "mini") {
    engine::MiniCdbOptions options;
    options.table_rows = spec.mini_table_rows;
    options.seed = spec.seed;
    return std::make_unique<engine::MiniCdb>(spec.hardware, options);
  }
  return env::SimulatedCdb::MysqlCdb(spec.hardware, spec.seed);
}

/// The seed loop: a fresh CdbTuner per tenant, loading the standard model
/// and running the classic single-session OnlineTune. Online tuning
/// fine-tunes the tuner's own agent, so every tenant loads a private copy
/// of the model from the file written here.
std::vector<tuner::OnlineTuneResult> RunSolo(
    const std::vector<server::SessionSpec>& specs,
    const tuner::CdbTuner& trained) {
  auto saved = trained.SaveModel(kModelPath);
  if (!saved.ok()) {
    std::fprintf(stderr, "SaveModel: %s\n", saved.ToString().c_str());
    std::exit(1);
  }
  std::vector<tuner::OnlineTuneResult> results;
  for (const auto& spec : specs) {
    auto db = MakeSpecDb(spec);
    auto space = knobs::KnobSpace::AllTunable(&db->registry());
    tuner::CdbTuneOptions options;
    options.seed = spec.seed;
    if (spec.stress_duration_s >= 0.0) {
      options.stress_duration_s = spec.stress_duration_s;
    }
    tuner::CdbTuner tuner(db.get(), space, options);
    auto loaded = tuner.LoadModel(kModelPath);
    if (!loaded.ok()) {
      std::fprintf(stderr, "LoadModel: %s\n", loaded.ToString().c_str());
      std::exit(1);
    }
    results.push_back(tuner.OnlineTune(spec.workload, spec.max_steps));
  }
  return results;
}

/// Tune-many half: all tenants through one TuningServer, stepping in rounds.
std::vector<tuner::OnlineTuneResult> RunServed(
    const std::vector<server::SessionSpec>& specs, size_t threads,
    tuner::CdbTuner& trained) {
  util::ComputeContext::Get().SetThreads(threads);
  server::TuningServer srv;
  auto adopted = srv.AdoptModel(trained);
  if (!adopted.ok()) {
    std::fprintf(stderr, "AdoptModel: %s\n", adopted.ToString().c_str());
    std::exit(1);
  }
  std::vector<int> ids;
  for (const auto& spec : specs) {
    auto id = srv.Open(spec);
    if (!id.ok()) {
      std::fprintf(stderr, "Open: %s\n", id.status().ToString().c_str());
      std::exit(1);
    }
    ids.push_back(*id);
  }
  while (true) {
    auto stepped = srv.StepRound();
    if (!stepped.ok() || *stepped == 0) break;
  }
  std::vector<tuner::OnlineTuneResult> results;
  for (int id : ids) {
    auto result = srv.Close(id);
    if (!result.ok()) {
      std::fprintf(stderr, "Close: %s\n", result.status().ToString().c_str());
      std::exit(1);
    }
    results.push_back(*result);
  }
  util::ComputeContext::Get().SetThreads(0);
  return results;
}

/// Opens one fresh sim session on `srv` and steps it to completion; returns
/// the cumulative (unscaled) reward of the episode — the warm/cold rebuild
/// comparison metric.
double RunProbeSession(server::TuningServer& srv, uint64_t seed) {
  server::SessionSpec spec;
  spec.engine = "sim";
  spec.workload = workload::SysbenchReadWrite();
  spec.hardware = env::CdbA();
  spec.seed = seed;
  spec.max_steps = 5;
  auto id = srv.Open(spec);
  if (!id.ok()) {
    std::fprintf(stderr, "Open: %s\n", id.status().ToString().c_str());
    std::exit(1);
  }
  double total = 0.0;
  while (true) {
    auto record = srv.Step(*id);
    if (!record.ok()) break;
    total += record->reward;
    if (record->crashed) break;
  }
  auto closed = srv.Close(*id);
  if (!closed.ok()) {
    std::fprintf(stderr, "Close: %s\n", closed.status().ToString().c_str());
    std::exit(1);
  }
  return total;
}

/// REBUILD as the paper's Table 6, live: accumulate experience with the
/// trained model, rebuild a *smaller* agent warm-started from the pool, and
/// show its first served episode beats the same architecture starting cold.
bool RunRebuildDemo(const std::vector<server::SessionSpec>& specs,
                    tuner::CdbTuner& trained) {
  util::ComputeContext::Get().SetThreads(1);
  const std::vector<size_t> new_actor = {96, 64};
  const uint64_t probe_seed = 999;

  // Warm: serve the demo tenants to fill the experience pool, then rebuild.
  server::TuningServer warm;
  if (!warm.AdoptModel(trained).ok()) std::exit(1);
  for (const auto& spec : specs) {
    if (spec.engine != "sim") continue;  // Keep the rebuild demo brisk.
    auto id = warm.Open(spec);
    if (!id.ok()) std::exit(1);
  }
  while (true) {
    auto stepped = warm.StepRound();
    if (!stepped.ok() || *stepped == 0) break;
  }
  server::RebuildSpec rebuild;
  rebuild.actor_hidden = new_actor;
  rebuild.seed = 4242;
  rebuild.train_iters = 300;
  auto report = warm.Rebuild(rebuild);
  if (!report.ok()) {
    std::fprintf(stderr, "Rebuild: %s\n", report.status().ToString().c_str());
    std::exit(1);
  }
  double warm_reward = RunProbeSession(warm, probe_seed);

  // Cold: the identical reshaped agent, same seed, but no pool to learn
  // from — a fresh untrained network serving the same probe tenant.
  auto cold_db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 41);
  auto cold_space = knobs::KnobSpace::AllTunable(&cold_db->registry());
  tuner::CdbTuneOptions cold_options;
  cold_options.seed = 41;
  cold_options.ddpg.actor_hidden = new_actor;
  cold_options.ddpg.seed = 4242;
  tuner::CdbTuner untrained(cold_db.get(), cold_space, cold_options);
  server::TuningServer cold;
  if (!cold.AdoptModel(untrained).ok()) std::exit(1);
  double cold_reward = RunProbeSession(cold, probe_seed);

  bool ok = warm_reward > cold_reward;
  std::printf(
      "rebuild: %zu experiences -> actor 96-64 (%zu -> %zu params), first "
      "episode reward warm %.3f vs cold %.3f %s\n",
      report->experiences, report->params_before, report->params_after,
      warm_reward, cold_reward, ok ? "WARM-WINS" : "COLD-WINS");
  util::ComputeContext::Get().SetThreads(0);
  return ok;
}

int RunDemo() {
  StandardModel model = TrainStandardModel(/*offline_steps=*/400);
  auto specs = DemoSpecs();

  std::printf("-- solo seed loop (%zu tenants, sequential) --\n", specs.size());
  auto solo = RunSolo(specs, *model.tuner);
  std::printf("-- tuning server, 4 threads --\n");
  auto served4 = RunServed(specs, 4, *model.tuner);
  std::printf("-- tuning server, 1 thread --\n");
  auto served1 = RunServed(specs, 1, *model.tuner);

  bool ok = true;
  for (size_t i = 0; i < specs.size(); ++i) {
    // Served sessions must tune at least as well as the classic loop; 2%
    // headroom absorbs the different exploration-noise streams and the
    // simulator's measurement noise.
    bool reaches = served4[i].best.throughput >= 0.98 * solo[i].best.throughput;
    // And a round-driven server is bitwise reproducible at any thread count.
    bool bitwise = served4[i].best.throughput == served1[i].best.throughput &&
                   served4[i].best.latency == served1[i].best.latency &&
                   served4[i].best_config == served1[i].best_config;
    ok = ok && reaches && bitwise;
    std::printf(
        "session %zu [%4s %-12s] tps0 %8.0f | solo %8.0f | served %8.0f "
        "(x%.2f) %s %s\n",
        i, specs[i].engine.c_str(), specs[i].workload.name.c_str(),
        served4[i].initial.throughput, solo[i].best.throughput,
        served4[i].best.throughput,
        served4[i].best.throughput /
            std::max(1.0, served4[i].initial.throughput),
        reaches ? "MEETS-SOLO" : "BELOW-SOLO",
        bitwise ? "DETERMINISTIC" : "THREAD-DIVERGED");
  }
  std::printf("-- rebuild warm-start (Table 6, live) --\n");
  bool rebuild_ok = RunRebuildDemo(specs, *model.tuner);
  ok = ok && rebuild_ok;

  std::printf(ok ? "PASS: all sessions meet the solo baseline, bitwise "
                   "reproducible across thread counts, warm rebuild beats "
                   "cold start\n"
                 : "FAIL: see lines above\n");
  return ok ? 0 : 1;
}

/// Parses all of `text` as a number in [lo, hi]. Unlike atoi/atof it
/// rejects empty input, trailing junk, overflow and out-of-range values.
template <typename T>
bool ParseNumber(const char* text, T lo, T hi, T* out) {
  const char* end = text + std::strlen(text);
  T value{};
  auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) {
    return false;
  }
  *out = value;
  return true;
}

/// Splits "HOST:PORT" (IPv4 dotted quad + decimal port; 0 = ephemeral).
bool ParseHostPort(const char* spec, std::string* host, uint16_t* port) {
  const char* colon = std::strrchr(spec, ':');
  if (colon == nullptr || colon == spec) return false;
  if (!ParseNumber<uint16_t>(colon + 1, 0, 65535, port)) return false;
  host->assign(spec, colon);
  return true;
}

struct ListenFlags {
  std::string host;
  uint16_t port = 0;
  std::string checkpoint;
  bool restore = false;
  /// Autosave every N completed rounds; 0 never autosaves.
  int autosave_rounds = 1;
  size_t max_conns = 256;
  size_t sendq_bytes = 256 * 1024;
  /// Server-wide guardrail defaults (DESIGN.md §12); sessions can still
  /// override enablement per-OPEN with safety=0|1.
  bool safety = false;
  double safety_margin = -1.0;
  int safety_k = -1;
  double safety_tr = -1.0;
  double safety_drift = -1.0;
};

/// Parses the flags after `--listen HOST:PORT`. Returns false (after
/// printing why) on an unknown flag or a malformed value.
bool ParseListenFlags(int argc, char** argv, ListenFlags* flags) {
  if (!ParseHostPort(argv[2], &flags->host, &flags->port)) {
    std::fprintf(stderr, "--listen wants HOST:PORT, got '%s'\n", argv[2]);
    return false;
  }
  constexpr double kPositive = std::numeric_limits<double>::denorm_min();
  constexpr double kHuge = std::numeric_limits<double>::max();
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--restore") {
      flags->restore = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "--listen flag '%s' is unknown or lacks a value\n",
                   argv[i]);
      return false;
    }
    const char* value = argv[++i];
    bool ok = true;
    if (flag == "--checkpoint") {
      flags->checkpoint = value;
    } else if (flag == "--autosave") {
      ok = ParseNumber(value, 0, INT_MAX, &flags->autosave_rounds);
    } else if (flag == "--safety") {
      ok = std::strcmp(value, "on") == 0 || std::strcmp(value, "off") == 0;
      flags->safety = std::strcmp(value, "on") == 0;
    } else if (flag == "--safety-margin") {
      ok = ParseNumber(value, 0.0, 1.0, &flags->safety_margin);
    } else if (flag == "--safety-k") {
      ok = ParseNumber(value, 1, INT_MAX, &flags->safety_k);
    } else if (flag == "--safety-tr") {
      ok = ParseNumber(value, kPositive, 1.0, &flags->safety_tr);
    } else if (flag == "--safety-drift") {
      ok = ParseNumber(value, kPositive, kHuge, &flags->safety_drift);
    } else if (flag == "--max-conns") {
      ok = ParseNumber<size_t>(value, 1, SIZE_MAX, &flags->max_conns);
    } else if (flag == "--sendq-bytes") {
      ok = ParseNumber<size_t>(value, 1, SIZE_MAX, &flags->sendq_bytes);
    } else {
      std::fprintf(stderr, "unknown --listen flag '%s'\n", argv[i - 1]);
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value '%s' for %s\n", value, flag.c_str());
      return false;
    }
  }
  return true;
}

int RunListen(const ListenFlags& flags) {
  server::TuningServerOptions server_options;
  if (!flags.checkpoint.empty()) {
    server_options.autosave_path = flags.checkpoint;
    server_options.autosave_every_rounds = flags.autosave_rounds;
  }
  server_options.safety.enabled = flags.safety;
  if (flags.safety_margin >= 0.0) {
    server_options.safety.regression_margin = flags.safety_margin;
  }
  if (flags.safety_k >= 1) server_options.safety.rollback_after = flags.safety_k;
  if (flags.safety_tr > 0.0) server_options.safety.tr_initial = flags.safety_tr;
  if (flags.safety_drift > 0.0) {
    server_options.safety.drift_threshold = flags.safety_drift;
  }
  server::TuningServer srv(server_options);

  if (flags.restore) {
    if (flags.checkpoint.empty()) {
      std::fprintf(stderr, "--restore needs --checkpoint PATH\n");
      return 2;
    }
    auto report = srv.RestoreCheckpoint(flags.checkpoint);
    if (!report.ok()) {
      std::fprintf(stderr, "RestoreCheckpoint: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "restored %s (generation %d, %zu dropped) — %zu sessions, %llu "
        "rounds\n",
        report->path.c_str(), report->generation, report->dropped.size(),
        report->sessions,
        static_cast<unsigned long long>(report->rounds_completed));
  } else {
    StandardModel model = TrainStandardModel(/*offline_steps=*/200);
    auto adopted = srv.AdoptModel(*model.tuner);
    if (!adopted.ok()) {
      std::fprintf(stderr, "AdoptModel: %s\n", adopted.ToString().c_str());
      return 1;
    }
  }
  // The epoll reactor decodes frames and hands each request to the one
  // dispatcher; STATUS scrapes the front end's telemetry through it.
  server::Dispatcher dispatcher(&srv);
  server::net::TcpServerOptions tcp_options;
  tcp_options.host = flags.host;
  tcp_options.port = flags.port;
  tcp_options.max_connections = flags.max_conns;
  tcp_options.sendq_bytes = flags.sendq_bytes;
  server::net::TcpServer front(&dispatcher, tcp_options);
  dispatcher.RegisterTransport(&front);

  auto started = front.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "Start: %s\n", started.ToString().c_str());
    return 1;
  }
  // Scripts read the bound port from this line, so push it past stdio's
  // full buffering when stdout is a file or pipe.
  std::printf("listening on tcp %s:%u (send SHUTDOWN to stop)\n",
              flags.host.c_str(), front.port());
  std::fflush(stdout);
  front.WaitForShutdown();
  srv.DrainAndStop();
  front.Stop();
  std::printf("drained and stopped\n");
  return 0;
}

int RunSend(const char* spec, int argc, char** argv, int first) {
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(spec, &host, &port)) {
    std::fprintf(stderr, "--send wants HOST:PORT, got '%s'\n", spec);
    return 2;
  }
  server::net::FrameClient client;
  auto connected = client.Connect(host, port);
  if (!connected.ok()) {
    std::fprintf(stderr, "Connect: %s\n", connected.ToString().c_str());
    return 1;
  }
  for (int i = first; i < argc; ++i) {
    auto reply = client.Call(argv[i]);
    if (!reply.ok()) {
      std::fprintf(stderr, "Call: %s\n", reply.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", reply->c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--listen") == 0) {
    ListenFlags flags;
    if (!ParseListenFlags(argc, argv, &flags)) return 2;
    return RunListen(flags);
  }
  if (argc >= 4 && std::strcmp(argv[1], "--send") == 0) {
    return RunSend(argv[2], argc, argv, 3);
  }
  if (argc > 1) {
    std::fprintf(stderr,
                 "usage: cdbtune_serve [--listen HOST:PORT [--checkpoint PATH] "
                 "[--restore] [--autosave N] [--safety on|off] "
                 "[--safety-margin F] [--safety-k N] [--safety-tr F] "
                 "[--safety-drift F] [--max-conns N] [--sendq-bytes N] | "
                 "--send HOST:PORT LINE...]\n");
    return 2;
  }
  return RunDemo();
}
