#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint_mutants.h"
#include "gtest/gtest.h"
#include "persist/atomic_file.h"
#include "server/dispatch.h"
#include "server/protocol.h"
#include "server/tuning_server.h"
#include "env/simulated_cdb.h"
#include "tuner/cdbtune.h"
#include "util/thread_pool.h"

#include <unistd.h>

namespace cdbtune::server {
namespace {

// --- ShardedExperiencePool ---------------------------------------------------

tuner::Experience MarkedExperience(double marker) {
  tuner::Experience experience;
  experience.transition.state = {marker};
  experience.transition.action = {marker};
  experience.transition.next_state = {marker};
  experience.transition.reward = marker;
  experience.workload_name = "test";
  return experience;
}

TEST(ShardedExperiencePoolTest, CollectMergesInShardThenArrivalOrder) {
  tuner::ShardedExperiencePool pool(3, 8);
  // Interleave writers; the merged order must still be (shard, arrival).
  pool.Add(2, MarkedExperience(20));
  pool.Add(0, MarkedExperience(1));
  pool.Add(1, MarkedExperience(10));
  pool.Add(0, MarkedExperience(2));
  pool.Add(2, MarkedExperience(21));

  std::vector<tuner::Experience> merged = pool.CollectNew();
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged[0].transition.reward, 1);
  EXPECT_EQ(merged[1].transition.reward, 2);
  EXPECT_EQ(merged[2].transition.reward, 10);
  EXPECT_EQ(merged[3].transition.reward, 20);
  EXPECT_EQ(merged[4].transition.reward, 21);

  // A second collect sees only what arrived since.
  EXPECT_TRUE(pool.CollectNew().empty());
  pool.Add(1, MarkedExperience(11));
  std::vector<tuner::Experience> again = pool.CollectNew();
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].transition.reward, 11);
  EXPECT_EQ(pool.total_added(), 6u);
  EXPECT_EQ(pool.total_dropped(), 0u);
}

TEST(ShardedExperiencePoolTest, RingDropsOldestWhenTrainerLags) {
  tuner::ShardedExperiencePool pool(1, 2);
  pool.Add(0, MarkedExperience(1));
  pool.Add(0, MarkedExperience(2));
  pool.Add(0, MarkedExperience(3));  // Overwrites 1 before any merge.
  std::vector<tuner::Experience> merged = pool.CollectNew();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].transition.reward, 2);
  EXPECT_EQ(merged[1].transition.reward, 3);
  EXPECT_EQ(pool.total_added(), 3u);
  EXPECT_EQ(pool.total_dropped(), 1u);
}

TEST(ShardedExperiencePoolTest, SnapshotCopiesRetainedWindow) {
  tuner::ShardedExperiencePool pool(2, 2);
  for (int i = 0; i < 3; ++i) pool.Add(0, MarkedExperience(i));
  pool.Add(1, MarkedExperience(10));
  tuner::MemoryPool snapshot;
  pool.SnapshotInto(&snapshot);
  ASSERT_EQ(snapshot.size(), 3u);  // Shard 0 retains {1, 2}, shard 1 {10}.
  EXPECT_EQ(snapshot.at(0).transition.reward, 1);
  EXPECT_EQ(snapshot.at(1).transition.reward, 2);
  EXPECT_EQ(snapshot.at(2).transition.reward, 10);
}

// --- Protocol ----------------------------------------------------------------

TEST(ProtocolTest, ParsesVerbAndArguments) {
  auto command = ParseCommand("OPEN engine=sim seed=42 workload=tpcc");
  ASSERT_TRUE(command.ok());
  EXPECT_EQ(command->verb, "OPEN");
  EXPECT_EQ(command->args.at("engine"), "sim");
  EXPECT_EQ(command->args.at("seed"), "42");
  EXPECT_EQ(command->args.at("workload"), "tpcc");
}

TEST(ProtocolTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseCommand("").ok());
  EXPECT_FALSE(ParseCommand("   ").ok());
  EXPECT_FALSE(ParseCommand("STEP id").ok());
  EXPECT_FALSE(ParseCommand("STEP =3").ok());
  EXPECT_FALSE(ParseCommand("STEP id=").ok());
  auto repeated = ParseCommand("TRAIN n=2147483647 n=0");
  ASSERT_FALSE(repeated.ok());
  EXPECT_EQ(repeated.status().message(), "repeated argument 'n'");
}

TEST(ProtocolTest, DoubleFormattingRoundTrips) {
  for (double v : {0.1, 1e300, -3.25, 1234567.875, 1.0 / 3.0}) {
    EXPECT_EQ(std::stod(FormatDouble(v)), v);
  }
}

TEST(ProtocolTest, WorkloadNamesResolve) {
  EXPECT_TRUE(WorkloadByName("sysbench_rw").ok());
  EXPECT_TRUE(WorkloadByName("tpch").ok());
  EXPECT_FALSE(WorkloadByName("nosuch").ok());
}

// --- TuningServer ------------------------------------------------------------

/// Trains a standard model on CDB-A (seeded with options.seed) and keeps it
/// for the rest of the process; its weights are only ever cloned, never
/// mutated.
tuner::CdbTuner& TrainStandardModel(tuner::CdbTuneOptions options) {
  struct Model {
    std::unique_ptr<env::SimulatedCdb> db;
    std::unique_ptr<tuner::CdbTuner> tuner;
  };
  auto* m = new Model;
  m->db = env::SimulatedCdb::MysqlCdb(env::CdbA(), options.seed);
  auto space = knobs::KnobSpace::AllTunable(&m->db->registry());
  m->tuner = std::make_unique<tuner::CdbTuner>(m->db.get(), space, options);
  m->tuner->OfflineTrain(workload::SysbenchReadWrite());
  return *m->tuner;
}

/// One standard model trained once and shared by every server test.
tuner::CdbTuner& SharedTrainedTuner() {
  static tuner::CdbTuner& model = []() -> tuner::CdbTuner& {
    tuner::CdbTuneOptions options;
    options.max_offline_steps = 40;
    options.steps_per_episode = 10;
    options.seed = 71;
    return TrainStandardModel(options);
  }();
  return model;
}

std::vector<SessionSpec> TestSpecs(size_t count) {
  const workload::WorkloadSpec workloads[] = {
      workload::SysbenchReadWrite(), workload::SysbenchReadOnly(),
      workload::SysbenchWriteOnly(), workload::Tpcc(), workload::Ycsb()};
  const env::HardwareSpec shapes[] = {env::CdbA(), env::CdbB(), env::CdbC()};
  std::vector<SessionSpec> specs;
  for (size_t i = 0; i < count; ++i) {
    SessionSpec spec;
    spec.engine = "sim";
    spec.workload = workloads[i % 5];
    spec.hardware = shapes[i % 3];
    spec.seed = 500 + i;
    spec.max_steps = 4;
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Runs each spec alone in its own single-session server (the reference
/// trajectory for the concurrency tests).
std::vector<tuner::OnlineTuneResult> RunEachSolo(
    const std::vector<SessionSpec>& specs) {
  std::vector<tuner::OnlineTuneResult> results;
  for (const SessionSpec& spec : specs) {
    TuningServer server;
    EXPECT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
    auto id = server.Open(spec);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    while (true) {
      auto record = server.Step(*id);
      if (!record.ok()) break;
      auto status = server.GetStatus(*id);
      if (!status.ok() || status->phase != tuner::SessionPhase::kTuning) break;
    }
    auto result = server.Close(*id);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    results.push_back(*result);
  }
  return results;
}

void ExpectSameResult(const tuner::OnlineTuneResult& a,
                      const tuner::OnlineTuneResult& b) {
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.initial.throughput, b.initial.throughput);
  EXPECT_EQ(a.best.throughput, b.best.throughput);
  EXPECT_EQ(a.best.latency, b.best.latency);
  EXPECT_EQ(a.best_config, b.best_config);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].reward, b.history[i].reward);
    EXPECT_EQ(a.history[i].throughput, b.history[i].throughput);
  }
}

TEST(TuningServerTest, EightConcurrentSessionsMatchSoloRuns) {
  auto specs = TestSpecs(8);
  auto solo = RunEachSolo(specs);

  util::ComputeContext::Get().SetThreads(4);
  TuningServer server;  // Default train_iters_per_round = 0: frozen model.
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  std::vector<int> ids;
  for (const SessionSpec& spec : specs) {
    auto id = server.Open(spec);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  EXPECT_EQ(server.open_sessions(), 8u);
  while (true) {
    auto stepped = server.StepRound();
    ASSERT_TRUE(stepped.ok()) << stepped.status().ToString();
    if (*stepped == 0) break;
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    auto result = server.Close(ids[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameResult(*result, solo[i]);
  }
  util::ComputeContext::Get().SetThreads(0);
}

TEST(TuningServerTest, ClosingOneSessionMidEpisodeLeavesOthersExact) {
  auto specs = TestSpecs(4);
  auto solo = RunEachSolo(specs);

  util::ComputeContext::Get().SetThreads(4);
  TuningServer server;
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  std::vector<int> ids;
  for (const SessionSpec& spec : specs) {
    auto id = server.Open(spec);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  ASSERT_TRUE(server.StepRound().ok());
  // Kill tenant 2 after one step; its best-so-far config still deploys.
  auto killed = server.Close(ids[2]);
  ASSERT_TRUE(killed.ok());
  EXPECT_EQ(killed->steps, 1);
  EXPECT_GT(killed->best.throughput, 0.0);
  while (true) {
    auto stepped = server.StepRound();
    ASSERT_TRUE(stepped.ok());
    if (*stepped == 0) break;
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i == 2) continue;
    auto result = server.Close(ids[i]);
    ASSERT_TRUE(result.ok());
    ExpectSameResult(*result, solo[i]);
  }
  util::ComputeContext::Get().SetThreads(0);
}

TEST(TuningServerTest, TrainingRoundsAreThreadCountInvariant) {
  // With training enabled results may drift from the frozen-solo runs, but
  // they must not depend on the thread count: merges happen at barriers in
  // (shard, arrival) order.
  auto run = [&](size_t threads) {
    util::ComputeContext::Get().SetThreads(threads);
    TuningServerOptions options;
    options.train_iters_per_round = 2;
    TuningServer server(options);
    EXPECT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
    auto specs = TestSpecs(8);
    for (auto& spec : specs) spec.max_steps = 5;
    std::vector<int> ids;
    for (const SessionSpec& spec : specs) {
      auto id = server.Open(spec);
      EXPECT_TRUE(id.ok());
      ids.push_back(*id);
    }
    while (true) {
      auto stepped = server.StepRound();
      EXPECT_TRUE(stepped.ok());
      if (!stepped.ok() || *stepped == 0) break;
    }
    std::vector<tuner::OnlineTuneResult> results;
    for (int id : ids) {
      auto result = server.Close(id);
      EXPECT_TRUE(result.ok());
      results.push_back(*result);
    }
    util::ComputeContext::Get().SetThreads(0);
    return results;
  };
  auto with1 = run(1);
  auto with4 = run(4);
  ASSERT_EQ(with1.size(), with4.size());
  for (size_t i = 0; i < with1.size(); ++i) {
    ExpectSameResult(with1[i], with4[i]);
  }
}

TEST(TuningServerTest, CapacityAndErrorPaths) {
  TuningServerOptions options;
  options.max_sessions = 2;
  TuningServer server(options);

  SessionSpec spec;
  spec.seed = 900;
  // No model yet.
  EXPECT_FALSE(server.Open(spec).ok());
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  EXPECT_FALSE(server.AdoptModel(SharedTrainedTuner()).ok());  // Only once.

  spec.engine = "nosuch";
  EXPECT_FALSE(server.Open(spec).ok());
  spec.engine = "sim";
  auto first = server.Open(spec);
  ASSERT_TRUE(first.ok());
  spec.seed = 901;
  ASSERT_TRUE(server.Open(spec).ok());
  spec.seed = 902;
  auto third = server.Open(spec);
  EXPECT_FALSE(third.ok()) << "capacity is 2";

  EXPECT_FALSE(server.Step(99).ok());
  EXPECT_FALSE(server.Close(99).ok());
  EXPECT_FALSE(server.GetStatus(99).ok());
  EXPECT_EQ(server.ListStatus().size(), 2u);

  // Steps past the budget fail cleanly, and the phase reports finished.
  for (int i = 0; i < spec.max_steps; ++i) {
    EXPECT_TRUE(server.Step(*first).ok());
  }
  EXPECT_FALSE(server.Step(*first).ok());
  auto status = server.GetStatus(*first);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->phase, tuner::SessionPhase::kFinished);
  auto rendered = server.RenderBestConfig(*first);
  ASSERT_TRUE(rendered.ok());
  EXPECT_FALSE(rendered->empty()) << "tuned config should differ from default";

  server.DrainAndStop();
  spec.seed = 903;
  EXPECT_FALSE(server.Open(spec).ok()) << "draining refuses new sessions";
  EXPECT_EQ(server.open_sessions(), 0u);
}

TEST(TuningServerTest, RecommendServesGreedyActions) {
  TuningServer server;
  std::vector<double> state(
      SharedTrainedTuner().agent().options().state_dim, 0.0);
  EXPECT_FALSE(server.Recommend(state).ok());
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  EXPECT_FALSE(server.Recommend(std::vector<double>(3, 0.0)).ok());
  auto action = server.Recommend(state);
  ASSERT_TRUE(action.ok());
  auto again = server.Recommend(state);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*action, *again) << "greedy inference consumes no rng";
}

// --- Dispatch ----------------------------------------------------------------

/// Runs one request line through a transient Dispatcher (no transports
/// registered) and returns the response payload.
std::string Dispatch(TuningServer& server, const std::string& line) {
  return Dispatcher(&server).Dispatch(line).response;
}

TEST(DispatchTest, BasicVerbs) {
  TuningServer server;
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  Dispatcher dispatcher(&server);
  DispatchResult pong = dispatcher.Dispatch("PING");
  EXPECT_EQ(pong.response, "OK pong=1");
  EXPECT_FALSE(pong.shutdown);
  EXPECT_EQ(Dispatch(server, "STATUS"), "OK sessions=0");
  EXPECT_EQ(Dispatch(server, "NOSUCH").rfind("ERR", 0), 0u);
  EXPECT_EQ(Dispatch(server, "STEP id=0").rfind("ERR", 0), 0u);
  DispatchResult bye = dispatcher.Dispatch("SHUTDOWN");
  EXPECT_EQ(bye.response, "OK bye=1");
  EXPECT_TRUE(bye.shutdown);
}

TEST(DispatchTest, FullSessionLifecycle) {
  TuningServer server;
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  std::string opened = Dispatch(
      server, "OPEN engine=sim workload=sysbench_rw seed=42 steps=2");
  ASSERT_EQ(opened.rfind("OK id=0", 0), 0u) << opened;
  std::string stepped = Dispatch(server, "STEP id=0 n=2");
  EXPECT_EQ(stepped.rfind("OK id=0 step=2", 0), 0u) << stepped;
  std::string status = Dispatch(server, "STATUS id=0");
  EXPECT_NE(status.find("phase=FINISHED"), std::string::npos) << status;
  std::string config = Dispatch(server, "BEST_CONFIG id=0");
  EXPECT_EQ(config.rfind("OK id=0 config=", 0), 0u) << config;
  std::string closed = Dispatch(server, "CLOSE id=0");
  EXPECT_EQ(closed.rfind("OK id=0 steps=2", 0), 0u) << closed;
  EXPECT_EQ(Dispatch(server, "STATUS"), "OK sessions=0");
}

TEST(DispatchTest, StatusReportsSafetyState) {
  TuningServerOptions options;
  options.safety.warmup_steps = 1;
  options.safety.regression_margin = 0.02;
  options.safety.rollback_after = 2;
  TuningServer server(options);
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());

  // safety=1 turns the guardrail on for this tenant; the degrade knobs
  // inject a mid-tune regression into its simulated instance.
  std::string opened = Dispatch(
      server, "OPEN engine=sim workload=sysbench_rw seed=61 steps=5 safety=1 "
      "degrade=innodb_buffer_pool_size degrade_after=1 degrade_sev=0.9");
  ASSERT_EQ(opened.rfind("OK id=0", 0), 0u) << opened;
  std::string status = Dispatch(server, "STATUS id=0");
  EXPECT_NE(status.find("safety=1"), std::string::npos) << status;
  EXPECT_NE(status.find("base_tps="), std::string::npos) << status;
  EXPECT_NE(status.find("tr_width="), std::string::npos) << status;
  EXPECT_NE(status.find("rollbacks=0"), std::string::npos) << status;

  // Two degraded steps reach K consecutive violations: the guardrail rolls
  // the tenant back and STATUS shows it parked on last-known-good.
  ASSERT_EQ(Dispatch(server, "STEP id=0 n=2").rfind("OK", 0), 0u);
  status = Dispatch(server, "STATUS id=0");
  EXPECT_NE(status.find("viol=2"), std::string::npos) << status;
  EXPECT_NE(status.find("rollbacks=1"), std::string::npos) << status;
  EXPECT_NE(status.find("on_lkg=1"), std::string::npos) << status;

  // An unguarded tenant reports safety=0 and no guardrail telemetry.
  opened = Dispatch(
      server, "OPEN engine=sim workload=sysbench_rw seed=62 safety=0");
  ASSERT_EQ(opened.rfind("OK id=1", 0), 0u) << opened;
  status = Dispatch(server, "STATUS id=1");
  EXPECT_NE(status.find("safety=0"), std::string::npos) << status;
  EXPECT_EQ(status.find("base_tps="), std::string::npos) << status;

  EXPECT_EQ(Dispatch(server, "OPEN engine=sim safety=2").rfind("ERR", 0), 0u);
  EXPECT_EQ(
      Dispatch(server, "OPEN engine=sim degrade=nosuch_knob degrade_sev=0.5")
          .rfind("ERR", 0),
      0u);
}

// Regression: a mini tenant whose instance cannot boot (its disk is smaller
// than its table) used to abort the whole server process from the engine's
// constructor. Now only that OPEN fails and the other tenants keep stepping.
TEST(DispatchTest, UnbootableMiniTenantFailsAlone) {
  TuningServer server;
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  ASSERT_EQ(Dispatch(server, "OPEN engine=sim seed=5 steps=2").rfind("OK", 0),
            0u);
  std::string doomed =
      Dispatch(server, "OPEN engine=mini disk_gb=5 rows=2000 stress_s=10");
  EXPECT_EQ(doomed.rfind("ERR", 0), 0u) << doomed;
  std::string stepped = Dispatch(server, "STEP id=0 n=2");
  EXPECT_EQ(stepped.rfind("OK id=0 step=2", 0), 0u) << stepped;
}

// Regressions: wire integers used to be cast to int before any check, so
// each of these was accepted with a wrapped value.
TEST(DispatchTest, SessionIdBeyondIntIsRejected) {
  TuningServer server;
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  ASSERT_EQ(Dispatch(server, "OPEN engine=sim seed=5").rfind("OK id=0", 0), 0u);
  ASSERT_EQ(Dispatch(server, "OPEN engine=sim seed=6").rfind("OK id=1", 0), 0u);
  // 4294967297 = 2^32 + 1 used to address session 1: one tenant's request
  // stepped or closed another tenant's session.
  for (const char* verb : {"STEP", "STATUS", "BEST_CONFIG", "CLOSE"}) {
    const std::string line = std::string(verb) + " id=4294967297";
    EXPECT_EQ(Dispatch(server, line).rfind("ERR INVALID_ARGUMENT", 0), 0u)
        << line;
  }
  auto status = server.GetStatus(1);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->steps_done, 0);
  EXPECT_EQ(server.open_sessions(), 2u);
}

TEST(DispatchTest, TrainCountBeyondIntIsRejected) {
  TuningServer server;
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  // Used to reply "OK trained=4294967296" after training zero times.
  EXPECT_EQ(Dispatch(server, "TRAIN n=4294967296")
                .rfind("ERR INVALID_ARGUMENT", 0),
            0u);
  EXPECT_EQ(Dispatch(server, "TRAIN n=0"), "OK trained=0");
}

TEST(DispatchTest, StepBudgetBeyondIntIsRejected) {
  TuningServer server;
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  // Used to open a session with a 1-step budget.
  EXPECT_EQ(Dispatch(server, "OPEN engine=sim steps=4294967297")
                .rfind("ERR INVALID_ARGUMENT", 0),
            0u);
  EXPECT_EQ(server.open_sessions(), 0u);
}

// What the removed per-key accessors checked, now checked by the grammar
// rows: a missing required key, an absent optional key's default, a value
// that is not an integer or not a number, and both inclusive bounds.
TEST(DispatchTest, ArgumentsFollowTheGrammar) {
  TuningServer server;
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  EXPECT_EQ(Dispatch(server, "STEP"),
            "ERR INVALID_ARGUMENT missing required argument 'id'");
  EXPECT_EQ(Dispatch(server, "SAVE"),
            "ERR INVALID_ARGUMENT missing required argument 'path'");
  // Absent keys keep their defaults: engine=sim, workload=sysbench_rw,
  // steps=5, STEP and ROUND n=1.
  ASSERT_EQ(Dispatch(server, "OPEN").rfind("OK id=0 ", 0), 0u);
  EXPECT_EQ(Dispatch(server, "STEP id=0").rfind("OK id=0 step=1 ", 0), 0u);
  EXPECT_EQ(Dispatch(server, "ROUND"), "OK rounds=1 sessions=1");
  std::string status = Dispatch(server, "STATUS id=0");
  EXPECT_NE(status.find(" engine=sim workload=Sysbench-RW steps=2 "),
            std::string::npos)
      << status;
  EXPECT_EQ(Dispatch(server, "STEP id=x"),
            "ERR INVALID_ARGUMENT argument id=x is not an integer");
  EXPECT_EQ(Dispatch(server, "STEP id=0 n=1.5"),
            "ERR INVALID_ARGUMENT argument n=1.5 is not an integer");
  EXPECT_EQ(
      Dispatch(server, "OPEN stress_s=abc"),
      "ERR INVALID_ARGUMENT argument stress_s=abc is not a finite number");
  ASSERT_EQ(
      Dispatch(server, "OPEN stress_s=0.5 safety=-1").rfind("OK id=1 ", 0),
      0u);
  ASSERT_EQ(Dispatch(server, "OPEN safety=1").rfind("OK id=2 ", 0), 0u);
  EXPECT_EQ(Dispatch(server, "OPEN safety=-2"),
            "ERR INVALID_ARGUMENT argument safety=-2 is outside [-1, 1]");
  EXPECT_EQ(Dispatch(server, "ROUND n=0"),
            "ERR INVALID_ARGUMENT argument n=0 is outside [1, 100]");
  EXPECT_EQ(Dispatch(server, "ROUND n=101"),
            "ERR INVALID_ARGUMENT argument n=101 is outside [1, 100]");
  // n=100 is in range; the round loop stops once every budget is spent.
  EXPECT_EQ(Dispatch(server, "ROUND n=100"), "OK rounds=100 sessions=0");
  EXPECT_EQ(Dispatch(server, "TRAIN n=0"), "OK trained=0");
}

// Each of these reached a server method before the grammar table; the last
// three held a worker or the training barrier for minutes to months.
TEST(DispatchTest, GrammarRejectsBeforeAnyServerCall) {
  TuningServer server;
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  const std::pair<const char*, const char*> rejected[] = {
      {"OPEN engine=sim foo=1", "'foo'"},
      {"OPEN engine=sim seed=1 seed=2", "'seed'"},
      {"OPEN engine=sim stress_s=nan", "stress_s=nan"},
      {"OPEN engine=sim stress_s=inf", "stress_s=inf"},
      {"CLOSE", "'id'"},
      {"STEP id=0 n=101", "n=101"},
      {"TRAIN n=1001", "n=1001"},
      {"TRAIN n=2147483647", "n=2147483647"},
      {"TRAIN n=2147483647 n=0", "'n'"},
      {"ROUND n=20000", "n=20000"},
      {"ROUND n=9223372036854775807", "n=9223372036854775807"},
      {"PING now=1", "'now'"},
  };
  for (const auto& [line, key] : rejected) {
    const std::string response = Dispatch(server, line);
    EXPECT_EQ(response.rfind("ERR INVALID_ARGUMENT ", 0), 0u) << line;
    EXPECT_NE(response.find(key), std::string::npos)
        << line << ": " << response;
  }
  // No OPEN consumed a session id and no ROUND ran.
  EXPECT_EQ(Dispatch(server, "OPEN engine=sim").rfind("OK id=0 ", 0), 0u);
  EXPECT_EQ(server.rounds_completed(), 0u);
}

// Specs that aborted the process at the next STEP (a stress duration so long
// that throughput underflows to 0), held a worker for a minute and hundreds
// of MB (a mini instance scaled past 256 MiB), or silently disabled a drill
// (a negative severity): SessionSpec::Validate refuses them in Open.
TEST(DispatchTest, UnsafeSessionSpecsAreRejected) {
  TuningServer server;
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  for (const char* line :
       {"OPEN engine=sim stress_s=1e300", "OPEN engine=sim stress_s=3601",
        "OPEN engine=sim stress_s=0", "OPEN engine=sim steps=0",
        "OPEN engine=sim ram_gb=0", "OPEN engine=sim disk_gb=-1",
        "OPEN engine=mini rows=2000 disk_gb=3000 stress_s=600000",
        "OPEN engine=mini rows=900000 disk_gb=60",
        "OPEN engine=sim degrade=innodb_buffer_pool_size degrade_sev=-5",
        "OPEN engine=sim degrade=innodb_buffer_pool_size degrade_sev=1"}) {
    EXPECT_EQ(Dispatch(server, line).rfind("ERR INVALID_ARGUMENT ", 0), 0u)
        << line;
  }
  EXPECT_EQ(Dispatch(server, "STEP id=0").rfind("ERR NOT_FOUND ", 0), 0u);
  EXPECT_EQ(server.open_sessions(), 0u);
  // The bounds themselves are accepted, and no refused OPEN took an id.
  EXPECT_EQ(Dispatch(server, "OPEN engine=sim stress_s=3600 steps=1")
                .rfind("OK id=0 ", 0),
            0u);
  EXPECT_EQ(Dispatch(server, "OPEN engine=sim stress_s=-1")
                .rfind("OK id=1 ", 0),
            0u);
}

// REBUILD actor_hidden=100000000-100000000 used to kill the daemon with an
// uncaught std::bad_alloc; DdpgOptions::Validate refuses it first.
TEST(DispatchTest, OversizedAgentShapesAreRejected) {
  TuningServer server;
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  for (const char* line :
       {"REBUILD actor_hidden=100000000-100000000", "REBUILD actor_hidden=0",
        "REBUILD actor_hidden=8-8-8-8-8-8-8-8-8", "REBUILD critic_embed=1025",
        "REBUILD critic_hidden=1025", "REBUILD actor_hidden=-5",
        "REBUILD train=1001"}) {
    EXPECT_EQ(Dispatch(server, line).rfind("ERR INVALID_ARGUMENT ", 0), 0u)
        << line;
  }
  std::vector<double> state(
      SharedTrainedTuner().agent().options().state_dim, 0.0);
  EXPECT_TRUE(server.Recommend(state).ok());
  EXPECT_EQ(Dispatch(server, "REBUILD actor_hidden=1024 critic_embed=1 "
                             "critic_hidden=1024-1")
                .rfind("OK ", 0),
            0u);
}

TEST(ShardedExperiencePoolTest, SnapshotAfterWraparoundIsDeterministic) {
  // Warm-start snapshots (REBUILD) must not depend on how session writers
  // interleaved: only the per-shard retained windows and the (shard,
  // arrival) merge order matter. Fill two pools with identical per-shard
  // sequences through different global interleavings — shard 0 overflows
  // its 4-slot ring — and require identical snapshots.
  tuner::ShardedExperiencePool first(3, 4);
  for (int i = 0; i <= 5; ++i) first.Add(0, MarkedExperience(i));
  (void)first.CollectNew();  // Snapshot must be merge-cursor independent.
  first.Add(1, MarkedExperience(10));
  first.Add(1, MarkedExperience(11));
  first.Add(2, MarkedExperience(20));

  tuner::ShardedExperiencePool second(3, 4);
  second.Add(2, MarkedExperience(20));
  for (int i = 0; i <= 2; ++i) second.Add(0, MarkedExperience(i));
  second.Add(1, MarkedExperience(10));
  for (int i = 3; i <= 5; ++i) second.Add(0, MarkedExperience(i));
  second.Add(1, MarkedExperience(11));

  EXPECT_EQ(first.total_dropped(), 2u);  // Shard 0 overwrote 0 and 1.
  tuner::MemoryPool snap1, snap2;
  first.SnapshotInto(&snap1);
  second.SnapshotInto(&snap2);  // Snapshot works with the merge outstanding…
  (void)second.CollectNew();    // …and the merge then accounts the overwrites.
  EXPECT_EQ(second.total_dropped(), 2u);
  const std::vector<double> expect = {2, 3, 4, 5, 10, 11, 20};
  ASSERT_EQ(snap1.size(), expect.size());
  ASSERT_EQ(snap2.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(snap1.at(i).transition.reward, expect[i]) << "index " << i;
    EXPECT_EQ(snap2.at(i).transition.reward, expect[i]) << "index " << i;
  }
}

// --- Checkpoint / restore / rebuild ------------------------------------------

std::string CheckpointPath(const std::string& tag) {
  return "/tmp/cdbtune_server_ckpt_" + std::to_string(::getpid()) + "_" + tag;
}

void RemoveGenerations(const std::string& path) {
  std::remove(path.c_str());
  for (int g = 1; g < 8; ++g) {
    std::remove((path + "." + std::to_string(g)).c_str());
  }
}

std::string FileBytes(const std::string& path) {
  auto bytes = persist::ReadFile(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? *bytes : std::string();
}

/// The tentpole regression: checkpoint a training server mid-flight, let the
/// original keep running to completion, restore the checkpoint into a fresh
/// process-equivalent server and run it to completion too. Both final
/// checkpoints must be bitwise identical and every session must report the
/// same result — kill -9 plus RESTORE is indistinguishable from never
/// crashing.
void ExpectCheckpointResumeEquivalence(size_t threads) {
  util::ComputeContext::Get().SetThreads(threads);
  const std::string tag = std::to_string(threads);
  const std::string mid = CheckpointPath("mid_" + tag);
  const std::string end_a = CheckpointPath("enda_" + tag);
  const std::string end_b = CheckpointPath("endb_" + tag);
  RemoveGenerations(mid);
  RemoveGenerations(end_a);
  RemoveGenerations(end_b);

  TuningServerOptions options;
  options.train_iters_per_round = 2;  // Agent evolves: full state matters.
  auto specs = TestSpecs(4);
  // A mini tenant: its engine restores by booting its saved config.
  SessionSpec mini = specs[3];
  mini.engine = "mini";
  mini.hardware = env::MakeInstance("mini", 8, 300);
  mini.mini_table_rows = 2000;
  mini.stress_duration_s = 10;
  mini.seed = 13;
  specs.push_back(mini);

  TuningServer a(options);
  ASSERT_TRUE(a.AdoptModel(SharedTrainedTuner()).ok());
  std::vector<int> ids;
  for (const SessionSpec& spec : specs) {
    auto id = a.Open(spec);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  ASSERT_TRUE(a.StepRound().ok());
  ASSERT_TRUE(a.StepRound().ok());
  ASSERT_TRUE(a.SaveCheckpoint(mid).ok());
  while (true) {
    auto stepped = a.StepRound();
    ASSERT_TRUE(stepped.ok()) << stepped.status().ToString();
    if (*stepped == 0) break;
  }
  ASSERT_TRUE(a.SaveCheckpoint(end_a).ok());

  TuningServer b(options);  // No model adopted: the checkpoint carries it.
  auto report = b.RestoreCheckpoint(mid);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->sessions, 5u);
  EXPECT_EQ(report->rounds_completed, 2u);
  EXPECT_TRUE(report->dropped.empty());
  EXPECT_EQ(b.rounds_completed(), 2u);
  while (true) {
    auto stepped = b.StepRound();
    ASSERT_TRUE(stepped.ok()) << stepped.status().ToString();
    if (*stepped == 0) break;
  }
  ASSERT_TRUE(b.SaveCheckpoint(end_b).ok());

  EXPECT_EQ(FileBytes(end_a), FileBytes(end_b))
      << "restored server diverged from the uninterrupted one";
  for (int id : ids) {
    auto result_a = a.Close(id);
    auto result_b = b.Close(id);
    ASSERT_TRUE(result_a.ok());
    ASSERT_TRUE(result_b.ok());
    ExpectSameResult(*result_a, *result_b);
  }
  RemoveGenerations(mid);
  RemoveGenerations(end_a);
  RemoveGenerations(end_b);
  util::ComputeContext::Get().SetThreads(0);
}

TEST(CheckpointTest, RestoreResumesBitwiseIdenticallySingleThread) {
  ExpectCheckpointResumeEquivalence(1);
}

TEST(CheckpointTest, RestoreResumesBitwiseIdenticallyFourThreads) {
  ExpectCheckpointResumeEquivalence(4);
}

TEST(CheckpointTest, StepRoundAutosavesEveryNRounds) {
  const std::string path = CheckpointPath("autosave");
  RemoveGenerations(path);
  TuningServerOptions options;
  options.autosave_path = path;
  options.autosave_every_rounds = 1;
  TuningServer server(options);
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  auto id = server.Open(TestSpecs(1)[0]);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(server.StepRound().ok());
  EXPECT_TRUE(persist::ReadFile(path).ok()) << "round did not autosave";

  TuningServer resumed(options);
  auto report = resumed.RestoreCheckpoint(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->sessions, 1u);
  EXPECT_EQ(report->rounds_completed, 1u);
  RemoveGenerations(path);
}

TEST(CheckpointTest, TornNewestGenerationFallsBack) {
  const std::string path = CheckpointPath("torn");
  RemoveGenerations(path);
  TuningServerOptions options;
  TuningServer server(options);
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  auto id = server.Open(TestSpecs(1)[0]);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(server.StepRound().ok());
  ASSERT_TRUE(server.SaveCheckpoint(path).ok());  // Generation 1-to-be.
  ASSERT_TRUE(server.StepRound().ok());
  ASSERT_TRUE(server.SaveCheckpoint(path).ok());  // Generation 0.

  // Tear the newest generation in half; restore must fall back to the
  // older one and report the drop.
  const std::string torn = FileBytes(path).substr(0, FileBytes(path).size() / 2);
  ASSERT_TRUE(persist::AtomicWriteFile(path, torn).ok());

  TuningServer resumed(options);
  auto report = resumed.RestoreCheckpoint(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->generation, 1);
  EXPECT_EQ(report->rounds_completed, 1u);
  ASSERT_EQ(report->dropped.size(), 1u);
  EXPECT_EQ(report->dropped[0].path, path);
  // The fallback server is live: it can finish the restored session.
  ASSERT_TRUE(resumed.StepRound().ok());
  RemoveGenerations(path);
}

TEST(CheckpointTest, CorruptCheckpointLeavesServerUntouched) {
  const std::string path = CheckpointPath("corrupt");
  RemoveGenerations(path);
  {
    TuningServer donor;
    ASSERT_TRUE(donor.AdoptModel(SharedTrainedTuner()).ok());
    auto id = donor.Open(TestSpecs(1)[0]);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(donor.SaveCheckpoint(path).ok());
  }
  std::string corrupt = FileBytes(path);
  corrupt[corrupt.size() / 2] ^= 0x04;
  ASSERT_TRUE(persist::AtomicWriteFile(path, corrupt).ok());

  TuningServer victim;
  ASSERT_TRUE(victim.AdoptModel(SharedTrainedTuner()).ok());
  std::vector<double> state(
      SharedTrainedTuner().agent().options().state_dim, 0.25);
  auto before = victim.Recommend(state);
  ASSERT_TRUE(before.ok());

  auto report = victim.RestoreCheckpoint(path);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), util::StatusCode::kDataLoss);

  // No partially-applied state: the model and the session table are intact.
  auto after = victim.Recommend(state);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);
  auto id = victim.Open(TestSpecs(1)[0]);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_TRUE(victim.Step(*id).ok());
  RemoveGenerations(path);
}

/// A server/meta payload: the next session id, the rounds completed and the
/// open sessions' ids.
std::string MetaPayload(int64_t next_id, uint64_t rounds,
                        const std::vector<int64_t>& ids) {
  persist::Encoder enc;
  enc.WriteI64(next_id);
  enc.WriteU64(rounds);
  enc.WriteU64(ids.size());
  for (int64_t id : ids) enc.WriteI64(id);
  return enc.Release();
}

// The server-checkpoint sweep: every chunk of a real checkpoint holding one
// plain and one guarded sim session, truncated and replaced with garbage in
// a re-CRC'd container, plus well-formed chunks the server cannot use:
// server/model_meta with collector statistics of the wrong dimension or a
// best action of length 3, session specs and agent options out of range,
// and session ids outside [0, next_id).
// Each must fail RestoreCheckpoint with a Status rather than abort — then
// or at a later ROUND — and leave the target without sessions or model;
// afterwards the same target restores the good checkpoint and steps.
TEST(CheckpointTest, TruncatedOrGarbageChunkPayloadsFailCleanly) {
  const std::string good = CheckpointPath("sweep_good");
  const std::string path = CheckpointPath("sweep");
  RemoveGenerations(good);
  RemoveGenerations(path);
  {
    TuningServer donor;
    ASSERT_TRUE(donor.AdoptModel(SharedTrainedTuner()).ok());
    std::vector<SessionSpec> specs = TestSpecs(2);
    specs[1].safety = 1;
    for (const SessionSpec& spec : specs) ASSERT_TRUE(donor.Open(spec).ok());
    ASSERT_TRUE(donor.StepRound().ok());
    ASSERT_TRUE(donor.SaveCheckpoint(good).ok());
  }
  auto parsed = persist::ChunkFile::Parse(FileBytes(good));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const persist::ChunkFile& file = *parsed;

  TuningServer target;
  auto restore_mutant = [&](const std::string& name,
                            const std::string& payload) {
    EXPECT_TRUE(persist::AtomicWriteFile(
                    path, tests::RebuildWithPayload(file, name, payload))
                    .ok());
    auto report = target.RestoreCheckpoint(path);
    EXPECT_FALSE(report.ok()) << "mutated " << name << " ("
                              << payload.size() << "B) restored";
    EXPECT_EQ(target.open_sessions(), 0u) << name;
    EXPECT_FALSE(target.model_ready()) << name;
    return report.status().code();
  };

  util::Rng garbage_rng(99);
  for (const std::string& name : file.Names()) {
    auto original = file.Get(name);
    ASSERT_TRUE(original.ok());
    for (const std::string& mutant :
         tests::PayloadMutants(std::string(*original), garbage_rng)) {
      restore_mutant(name, mutant);
    }
  }

  tuner::CdbTuner& model = SharedTrainedTuner();
  persist::Encoder wrong_dim;
  wrong_dim.WriteU64(7);
  for (int i = 0; i < 7; ++i) {
    wrong_dim.WriteU64(3);
    for (int f = 0; f < 4; ++f) wrong_dim.WriteDouble(1.0);
  }
  wrong_dim.WriteDoubleVec(model.best_offline_action());
  EXPECT_EQ(restore_mutant("server/model_meta", wrong_dim.bytes()),
            util::StatusCode::kDataLoss);

  persist::Encoder short_action;
  model.collector().SaveBinary(short_action);
  short_action.WriteDoubleVec({0.5, 0.5, 0.5});
  EXPECT_EQ(restore_mutant("server/model_meta", short_action.bytes()),
            util::StatusCode::kDataLoss);

  // A step budget of 2^32 + 4 narrows to session 0's budget of 4, so before
  // the range check it restored as if nothing were wrong.
  const std::string spec = std::string(*file.Get("session/0/spec"));
  persist::Encoder seed_and_budget, wide_budget;
  seed_and_budget.WriteU64(500);
  seed_and_budget.WriteI64(4);
  wide_budget.WriteU64(500);
  wide_budget.WriteI64((int64_t{1} << 32) + 4);
  EXPECT_EQ(restore_mutant("session/0/spec",
                           tests::ReplaceOnce(spec, seed_and_budget.bytes(),
                                              wide_budget.bytes())),
            util::StatusCode::kDataLoss);

  // Specs whose session could not survive a step: a 1e300 s stress
  // duration (default rows, then the stress field) and no CPU cores (CDB-A's
  // RAM and disk, then the cores). Either drives the simulated throughput
  // to 0, and the reward's CHECK used to abort the process.
  persist::Encoder rows_and_stress, endless_stress, shape, coreless;
  rows_and_stress.WriteU64(20000);
  rows_and_stress.WriteDouble(-1.0);
  endless_stress.WriteU64(20000);
  endless_stress.WriteDouble(1e300);
  for (persist::Encoder* enc : {&shape, &coreless}) {
    enc->WriteDouble(8.0);
    enc->WriteDouble(100.0);
  }
  shape.WriteI64(12);
  coreless.WriteI64(0);
  EXPECT_EQ(restore_mutant("session/0/spec",
                           tests::ReplaceOnce(spec, rows_and_stress.bytes(),
                                              endless_stress.bytes())),
            util::StatusCode::kDataLoss);
  EXPECT_EQ(restore_mutant("session/0/spec",
                           tests::ReplaceOnce(spec, shape.bytes(),
                                              coreless.bytes())),
            util::StatusCode::kDataLoss);

  // Agent options that the agent's constructor cannot survive: a 10^8-wide
  // actor (std::bad_alloc) and an empty replay (a CHECK).
  for (const auto& mutate : std::vector<std::function<void(rl::DdpgOptions&)>>{
           [](rl::DdpgOptions& o) { o.actor_hidden = {100000000, 100000000}; },
           [](rl::DdpgOptions& o) { o.replay_capacity = 0; }}) {
    rl::DdpgOptions options = model.agent().options();
    mutate(options);
    persist::Encoder encoded;
    rl::SaveDdpgOptionsBinary(encoded, options);
    EXPECT_EQ(restore_mutant("agent/options", encoded.bytes()),
              util::StatusCode::kDataLoss);
  }

  // Session ids out of range in server/meta. next_id 1 while session 1
  // exists would let the next OPEN reuse id 1; 2^32 narrowed to 0 and
  // restored session 0 under the wrong id.
  constexpr int64_t k2To32 = int64_t{1} << 32;
  ASSERT_EQ(std::string(*file.Get("server/meta")), MetaPayload(2, 1, {0, 1}));
  for (const std::string& meta :
       {MetaPayload(1, 1, {0, 1}), MetaPayload(-1, 1, {}),
        MetaPayload(2, 1, {k2To32, 1}),
        MetaPayload(k2To32 + 2, 1, {k2To32, k2To32 + 1})}) {
    EXPECT_EQ(restore_mutant("server/meta", meta),
              util::StatusCode::kDataLoss);
  }

  auto report = target.RestoreCheckpoint(good);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->sessions, 2u);
  auto stepped = target.StepRound();
  ASSERT_TRUE(stepped.ok()) << stepped.status().ToString();
  EXPECT_EQ(*stepped, 2u);
  RemoveGenerations(good);
  RemoveGenerations(path);
}

// A checkpoint whose next session id is INT_MAX restores and keeps tuning,
// but it has no id left to give: OPEN is refused rather than overflowing.
TEST(CheckpointTest, ExhaustedSessionIdsRefuseOpen) {
  const std::string good = CheckpointPath("ids_good");
  const std::string path = CheckpointPath("ids_max");
  RemoveGenerations(good);
  RemoveGenerations(path);
  {
    TuningServer donor;
    ASSERT_TRUE(donor.AdoptModel(SharedTrainedTuner()).ok());
    ASSERT_TRUE(donor.Open(TestSpecs(1)[0]).ok());
    ASSERT_TRUE(donor.SaveCheckpoint(good).ok());
  }
  auto parsed = persist::ChunkFile::Parse(FileBytes(good));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(persist::AtomicWriteFile(
                  path, tests::RebuildWithPayload(
                            *parsed, "server/meta",
                            MetaPayload(std::numeric_limits<int>::max(), 0,
                                        {0})))
                  .ok());

  TuningServer server;
  auto report = server.RestoreCheckpoint(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto refused = server.Open(TestSpecs(1)[0]);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.open_sessions(), 1u);
  EXPECT_TRUE(server.Step(0).ok());
  RemoveGenerations(good);
  RemoveGenerations(path);
}

TEST(CheckpointTest, RestoreRefusesWithOpenSessions) {
  const std::string path = CheckpointPath("busy");
  RemoveGenerations(path);
  TuningServer donor;
  ASSERT_TRUE(donor.AdoptModel(SharedTrainedTuner()).ok());
  ASSERT_TRUE(donor.Open(TestSpecs(1)[0]).ok());
  ASSERT_TRUE(donor.SaveCheckpoint(path).ok());
  // The donor itself still has a live session; restoring over it would
  // destroy in-flight state.
  auto report = donor.RestoreCheckpoint(path);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), util::StatusCode::kFailedPrecondition);
  RemoveGenerations(path);
}

TEST(CheckpointTest, RebuildWarmStartsResizedAgent) {
  TuningServer server;
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  std::vector<int> ids;
  for (const SessionSpec& spec : TestSpecs(2)) {
    auto id = server.Open(spec);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  while (true) {
    auto stepped = server.StepRound();
    ASSERT_TRUE(stepped.ok());
    if (*stepped == 0) break;
  }
  for (int id : ids) ASSERT_TRUE(server.Close(id).ok());

  RebuildSpec spec;
  spec.actor_hidden = {24, 16};
  spec.seed = 99;
  spec.train_iters = 5;
  auto report = server.Rebuild(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->experiences, 0u) << "warm start saw no replayed data";
  EXPECT_NE(report->params_after, report->params_before);

  // The rebuilt agent serves immediately: same state/action dims, new body.
  std::vector<double> state(
      SharedTrainedTuner().agent().options().state_dim, 0.0);
  EXPECT_TRUE(server.Recommend(state).ok());
  auto id = server.Open(TestSpecs(1)[0]);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(server.Step(*id).ok());
}

TEST(DispatchTest, CheckpointVerbs) {
  const std::string path = CheckpointPath("dispatch");
  RemoveGenerations(path);
  TuningServer server;
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  EXPECT_EQ(Dispatch(server, "SAVE").rfind("ERR", 0), 0u);
  EXPECT_EQ(Dispatch(server, "RESTORE").rfind("ERR", 0), 0u);
  EXPECT_EQ(Dispatch(server, "REBUILD actor_hidden=12-x").rfind("ERR", 0), 0u);

  std::string opened = Dispatch(
      server, "OPEN engine=sim workload=sysbench_rw seed=31 steps=2");
  ASSERT_EQ(opened.rfind("OK id=0", 0), 0u) << opened;
  ASSERT_EQ(Dispatch(server, "STEP id=0").rfind("OK", 0), 0u);
  std::string saved = Dispatch(server, "SAVE path=" + path);
  EXPECT_EQ(saved.rfind("OK path=", 0), 0u) << saved;

  std::string rebuilt =
      Dispatch(server, "REBUILD actor_hidden=24-16 seed=5 train=2");
  EXPECT_EQ(rebuilt.rfind("OK experiences=", 0), 0u) << rebuilt;
  EXPECT_NE(rebuilt.find("params_after="), std::string::npos);

  // A fresh server restores the whole world from the file: model plus the
  // mid-flight session, which then finishes over the same protocol.
  TuningServer resumed;
  std::string restored = Dispatch(resumed, "RESTORE path=" + path);
  EXPECT_EQ(restored.rfind("OK path=", 0), 0u) << restored;
  EXPECT_NE(restored.find("sessions=1"), std::string::npos) << restored;
  std::string status = Dispatch(resumed, "STATUS id=0");
  EXPECT_NE(status.find("phase=TUNING"), std::string::npos) << status;
  EXPECT_EQ(Dispatch(resumed, "STEP id=0").rfind("OK", 0), 0u);
  EXPECT_EQ(Dispatch(resumed, "CLOSE id=0").rfind("OK", 0), 0u);

  EXPECT_EQ(Dispatch(resumed, "RESTORE path=/nonexistent/ck").rfind("ERR", 0),
            0u);
  RemoveGenerations(path);
}

// --- Grammar fuzzer ----------------------------------------------------------

/// A standard model with one 8-wide hidden layer per network, so that the
/// largest TRAIN n and REBUILD train the grammar allows cost milliseconds.
tuner::CdbTuner& TinyTrainedTuner() {
  static tuner::CdbTuner& model = []() -> tuner::CdbTuner& {
    tuner::CdbTuneOptions options;
    options.max_offline_steps = 12;
    options.steps_per_episode = 6;
    options.seed = 73;
    options.ddpg.actor_hidden = {8};
    options.ddpg.critic_embed = 8;
    options.ddpg.critic_hidden = {8};
    options.ddpg.batch_size = 4;
    return TrainStandardModel(options);
  }();
  return model;
}

template <typename T>
const T& Pick(const std::vector<T>& items, util::Rng& rng) {
  return items[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(items.size()) - 1))];
}

/// Text for one argument: in range, at a bound, one past a bound, not a
/// number, or not finite. Accepted values stay small (no "mini" engine, at
/// most 100 steps or 1000 tiny gradient steps), and paths name only
/// `checkpoint`, so every request finishes in milliseconds.
std::string DrawValue(const ArgRow& arg, const std::string& checkpoint,
                      util::Rng& rng) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  switch (arg.type) {
    case ArgRow::Type::kInt: {
      std::vector<std::string> values = {
          std::to_string(arg.lo), std::to_string(arg.hi),
          std::to_string(std::clamp<int64_t>(rng.UniformInt(0, 3), arg.lo,
                                             arg.hi)),
          arg.lo > kMin ? std::to_string(arg.lo - 1)
                        : "-" + std::string(30, '9'),
          arg.hi < kMax ? std::to_string(arg.hi + 1) : std::string(30, '9'),
          "x", "1.5", "0x10", "-"};
      return Pick(values, rng);
    }
    case ArgRow::Type::kDouble:
      return Pick<std::string>({"0", "0.5", "16", "-1", "3600", "3601",
                                "1e300", "1e-300", "nan", "inf", "-inf", "x",
                                "1e", "--1"},
                               rng);
    case ArgRow::Type::kString:
      break;
  }
  if (arg.key == "path") return checkpoint;
  if (arg.key == "engine") return Pick<std::string>({"sim", "nosuch"}, rng);
  if (arg.key == "workload") {
    return Pick<std::string>({"sysbench_rw", "tpcc", "nosuch"}, rng);
  }
  if (arg.key == "degrade") {
    return Pick<std::string>({"innodb_buffer_pool_size", "nosuch"}, rng);
  }
  return Pick<std::string>({"8", "4-4", "8-", "0", "x", "-8", "1025",
                            "100000000-100000000", "1-1-1-1-1-1-1-1-1"},
                           rng);
}

/// One request drawn from a grammar row: every optional key half the time,
/// a required one usually, and now and then an unknown or repeated key.
std::string DrawRequest(const std::string& checkpoint, util::Rng& rng) {
  const VerbRow& row = Pick(Grammar(), rng);
  std::vector<std::string> args;
  for (const ArgRow& arg : row.args) {
    if (rng.Bernoulli(arg.required ? 0.9 : 0.5)) {
      args.push_back(std::string(arg.key) + "=" +
                     DrawValue(arg, checkpoint, rng));
    }
  }
  const double extra = rng.Uniform();
  if (extra < 0.1) {
    args.push_back("foo=1");
  } else if (extra < 0.2 && !row.args.empty()) {
    const ArgRow& arg = Pick(row.args, rng);
    args.push_back(std::string(arg.key) + "=" +
                   DrawValue(arg, checkpoint, rng));
  }
  rng.Shuffle(args);
  std::string line(row.verb);
  for (const std::string& arg : args) line += " " + arg;
  return line;
}

/// A byte-level mutant of `line`: truncated, one byte flipped, a space, '='
/// or NUL inserted, or its first number widened to 30 digits.
std::string Mutate(std::string line, util::Rng& rng) {
  const auto at = [&](size_t extra) {
    return static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(line.size() + extra) - 1));
  };
  switch (rng.UniformInt(0, 5)) {
    case 0:
      return line.substr(0, at(1));
    case 1:
      line[at(0)] ^= static_cast<char>(rng.UniformInt(1, 255));
      return line;
    case 2:
      return line.insert(at(1), 1, ' ');
    case 3:
      return line.insert(at(1), 1, '=');
    case 4:
      return line.insert(at(1), 1, '\0');
    default: {
      const size_t digit = line.find_first_of("0123456789");
      if (digit == std::string::npos) {
        return line + " n=" + std::string(30, '7');
      }
      return line.replace(digit, line.find_first_not_of("0123456789", digit) -
                                     digit, std::string(30, '7'));
    }
  }
}

// Seeded grammar fuzzer: requests drawn from the grammar table plus byte
// mutants of valid lines, against a live server holding one sim session.
// Every response must be OK or ERR, and afterwards the server must still
// answer PING and a parseable STATUS for every session it lists.
TEST(DispatchFuzzTest, GeneratedAndMutatedRequestsGetOkOrErr) {
  const std::string checkpoint = CheckpointPath("fuzz");
  RemoveGenerations(checkpoint);
  TuningServerOptions options;
  options.max_sessions = 4;
  TuningServer server(options);
  ASSERT_TRUE(server.AdoptModel(TinyTrainedTuner()).ok());
  Dispatcher dispatcher(&server);
  ASSERT_EQ(dispatcher.Dispatch("OPEN engine=sim seed=9 steps=1000000")
                .response.rfind("OK id=0 ", 0),
            0u);

  const std::vector<std::string> valid = {
      "OPEN engine=sim workload=tpcc seed=3 steps=4 safety=1",
      "STEP id=0 n=2",
      "ROUND n=2",
      "TRAIN n=2",
      "STATUS id=0",
      "STATUS",
      "BEST_CONFIG id=0",
      "CLOSE id=1",
      "REBUILD actor_hidden=8 critic_embed=4 train=2",
      "PING"};
  util::Rng rng(2024);
  constexpr int kGenerated = 600;
  constexpr int kMutants = 400;
  for (int i = 0; i < kGenerated + kMutants; ++i) {
    const std::string line = i < kGenerated ? DrawRequest(checkpoint, rng)
                                            : Mutate(Pick(valid, rng), rng);
    const std::string response = dispatcher.Dispatch(line).response;
    EXPECT_TRUE(response.rfind("OK ", 0) == 0 || response.rfind("ERR ", 0) == 0)
        << "request '" << line << "' got '" << response << "'";
  }

  EXPECT_EQ(dispatcher.Dispatch("PING").response, "OK pong=1");
  auto summary = ParseCommand(dispatcher.Dispatch("STATUS").response);
  ASSERT_TRUE(summary.ok());
  ASSERT_EQ(summary->verb, "OK");
  for (const auto& [key, value] : summary->args) {
    if (key[0] != 's' || key == "sessions") continue;
    const std::string id = key.substr(1);
    const std::string status = dispatcher.Dispatch("STATUS id=" + id).response;
    auto parsed = ParseCommand(status);
    ASSERT_TRUE(parsed.ok()) << status;
    EXPECT_EQ(parsed->verb, "OK") << status;
    EXPECT_EQ(parsed->args["id"], id) << status;
  }
  RemoveGenerations(checkpoint);
}

// --- Lock-free readers ------------------------------------------------------

/// Opens `specs` in order, then runs `phases` phases. Each phase steps every
/// session once; Train(1) and SaveCheckpoint run between phases. With
/// `concurrent`, four threads step their own sessions while two more run
/// the whole time: one reads (Recommend, GetStatus, model_ready), one opens
/// and closes a spare session. Returns every session's closed result.
std::vector<tuner::OnlineTuneResult> RunPhasedSchedule(
    const std::vector<SessionSpec>& specs, int phases, bool concurrent) {
  util::ComputeContext::Get().SetThreads(4);
  const std::string path =
      CheckpointPath(concurrent ? "phased_concurrent" : "phased_serial");
  RemoveGenerations(path);
  TuningServer server;
  EXPECT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  std::vector<int> ids;
  for (const SessionSpec& spec : specs) {
    auto id = server.Open(spec);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> background;
  if (concurrent) {
    background.emplace_back([&] {
      const std::vector<double> state(
          SharedTrainedTuner().agent().options().state_dim, 0.1);
      while (!stop) {
        EXPECT_TRUE(server.Recommend(state).ok());
        EXPECT_TRUE(server.model_ready());
        for (int id : ids) EXPECT_TRUE(server.GetStatus(id).ok());
      }
    });
    background.emplace_back([&] {
      SessionSpec spare = TestSpecs(1)[0];
      spare.seed = 999;
      while (!stop) {
        auto id = server.Open(spare);
        EXPECT_TRUE(id.ok()) << id.status().ToString();
        if (id.ok()) {
          EXPECT_TRUE(server.Close(*id).ok());
        }
      }
    });
  }

  constexpr size_t kSteppers = 4;
  for (int phase = 0; phase < phases; ++phase) {
    if (concurrent) {
      std::vector<std::thread> steppers;
      for (size_t t = 0; t < kSteppers; ++t) {
        steppers.emplace_back([&, t] {
          for (size_t i = t; i < ids.size(); i += kSteppers) {
            auto record = server.Step(ids[i]);
            EXPECT_TRUE(record.ok()) << record.status().ToString();
          }
        });
      }
      for (std::thread& stepper : steppers) stepper.join();
    } else {
      for (int id : ids) EXPECT_TRUE(server.Step(id).ok());
    }
    if (phase + 1 < phases) {
      EXPECT_TRUE(server.Train(1).ok());
      EXPECT_TRUE(server.SaveCheckpoint(path).ok());
    }
  }
  stop = true;
  for (std::thread& thread : background) thread.join();

  std::vector<tuner::OnlineTuneResult> results;
  for (int id : ids) {
    auto result = server.Close(id);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (result.ok()) results.push_back(*result);
  }
  RemoveGenerations(path);
  util::ComputeContext::Get().SetThreads(0);
  return results;
}

// Inference takes the model lock shared: steps on four threads, model
// readers and session churn all overlap, and training and checkpoints take
// it exclusive between phases. The trajectories must still equal the same
// schedule run on one thread. 12 sessions x 6 steps put more than one
// training batch into the pool, so the later Train(1) calls change weights.
TEST(TuningServerTest, ConcurrentReadersMatchSerialSchedule) {
  auto specs = TestSpecs(12);
  for (SessionSpec& spec : specs) spec.max_steps = 6;
  auto serial = RunPhasedSchedule(specs, 6, /*concurrent=*/false);
  auto concurrent = RunPhasedSchedule(specs, 6, /*concurrent=*/true);
  ASSERT_EQ(serial.size(), specs.size());
  ASSERT_EQ(concurrent.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(serial[i].steps, 6);
    ExpectSameResult(concurrent[i], serial[i]);
  }
}

}  // namespace
}  // namespace cdbtune::server
