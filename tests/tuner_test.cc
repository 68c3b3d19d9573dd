#include <cmath>

#include "gtest/gtest.h"
#include "env/simulated_cdb.h"
#include "tuner/cdbtune.h"
#include "tuner/controller.h"
#include "tuner/memory_pool.h"
#include "tuner/metrics_collector.h"
#include "tuner/recommender.h"
#include "tuner/reward.h"

namespace cdbtune::tuner {
namespace {

// --- Reward function (Eqs. 4-7) -----------------------------------------------

TEST(RewardTest, MetricRewardMatchesEquation6) {
  // d0 > 0 branch: ((1+d0)^2 - 1) * |1 + dp|.
  EXPECT_NEAR(RewardFunction::MetricReward(0.5, 0.2, false),
              ((1.5 * 1.5) - 1.0) * 1.2, 1e-12);
  // d0 <= 0 branch: -((1-d0)^2 - 1) * |1 - dp|.
  EXPECT_NEAR(RewardFunction::MetricReward(-0.5, -0.2, false),
              -((1.5 * 1.5) - 1.0) * 1.2, 1e-12);
  // Zero change gives zero reward.
  EXPECT_DOUBLE_EQ(RewardFunction::MetricReward(0.0, 0.0, true), 0.0);
}

TEST(RewardTest, ClampRuleZeroesPositiveRewardAfterRegression) {
  // Overall progress positive but the last step regressed: CDBTune sets 0.
  EXPECT_DOUBLE_EQ(RewardFunction::MetricReward(0.5, -0.1, true), 0.0);
  // RF-C keeps the raw Eq. 6 value.
  EXPECT_GT(RewardFunction::MetricReward(0.5, -0.1, false), 0.0);
  // Negative overall progress is unaffected by the clamp flag.
  EXPECT_DOUBLE_EQ(RewardFunction::MetricReward(-0.5, -0.1, true),
                   RewardFunction::MetricReward(-0.5, -0.1, false));
}

TEST(RewardTest, ComputeBlendsThroughputAndLatency) {
  RewardFunction rf(RewardFunctionType::kCdbTune, 0.5, 0.5);
  rf.SetInitial({1000.0, 100.0});
  // Throughput doubled, latency halved, both monotone since prev.
  double r = rf.Compute({1500.0, 80.0}, {2000.0, 50.0});
  double dt0 = 1.0, dtp = (2000.0 - 1500.0) / 1500.0;
  double dl0 = 0.5, dlp = (-50.0 + 80.0) / 80.0;
  double expected = 0.5 * RewardFunction::MetricReward(dt0, dtp, true) +
                    0.5 * RewardFunction::MetricReward(dl0, dlp, true);
  EXPECT_NEAR(r, expected, 1e-12);
  EXPECT_GT(r, 0.0);
}

TEST(RewardTest, WorseThanInitialIsNegative) {
  RewardFunction rf;
  rf.SetInitial({1000.0, 100.0});
  EXPECT_LT(rf.Compute({900.0, 120.0}, {500.0, 300.0}), 0.0);
}

TEST(RewardTest, CoefficientsShiftSensitivity) {
  // Throughput up, latency up (mixed outcome): a throughput-weighted
  // function scores it higher than a latency-weighted one (Appendix C.1.2).
  PerfPoint initial{1000.0, 100.0};
  PerfPoint mixed{1500.0, 150.0};
  RewardFunction rt(RewardFunctionType::kCdbTune, 0.9, 0.1);
  RewardFunction rl(RewardFunctionType::kCdbTune, 0.1, 0.9);
  rt.SetInitial(initial);
  rl.SetInitial(initial);
  EXPECT_GT(rt.Compute(initial, mixed), rl.Compute(initial, mixed));
}

TEST(RewardTest, VariantsCollapseDeltasAsDocumented) {
  PerfPoint initial{1000.0, 100.0};
  PerfPoint prev{1400.0, 70.0};
  PerfPoint curr{1200.0, 90.0};  // Above initial, below previous.
  RewardFunction rf_a(RewardFunctionType::kPrevOnly);
  rf_a.SetInitial(initial);
  // RF-A only sees the regression vs. prev: negative reward.
  EXPECT_LT(rf_a.Compute(prev, curr), 0.0);

  RewardFunction rf_b(RewardFunctionType::kInitialOnly);
  rf_b.SetInitial(initial);
  // RF-B only sees the gain vs. initial: positive reward.
  EXPECT_GT(rf_b.Compute(prev, curr), 0.0);

  RewardFunction rf_cdb(RewardFunctionType::kCdbTune);
  rf_cdb.SetInitial(initial);
  // CDBTune: progress positive but last step regressed -> exactly zero.
  EXPECT_DOUBLE_EQ(rf_cdb.Compute(prev, curr), 0.0);
}

TEST(RewardTest, CrashRewardIsMinus100) {
  RewardFunction rf;
  EXPECT_DOUBLE_EQ(rf.crash_reward(), -100.0);
}

TEST(RewardDeathTest, RequiresValidInputs) {
  RewardFunction rf;
  EXPECT_DEATH(rf.Compute({1, 1}, {1, 1}), "SetInitial");
  EXPECT_DEATH(RewardFunction(RewardFunctionType::kCdbTune, 0.7, 0.7),
               "C_T \\+ C_L");
}

// --- MetricsCollector ------------------------------------------------------------

TEST(CollectorTest, GaugesAveragedCountersDifferenced) {
  MetricsCollector collector;
  env::StressResult result;
  result.duration_s = 10.0;
  result.before.fill(0.0);
  result.after.fill(0.0);
  result.after[0] = 500.0;                         // Gauge: passes through.
  result.before[env::kNumStateMetrics] = 100.0;    // Counter: differenced.
  result.after[env::kNumStateMetrics] = 400.0;
  std::vector<double> raw = collector.ProcessRaw(result);
  EXPECT_DOUBLE_EQ(raw[0], 500.0);
  EXPECT_DOUBLE_EQ(raw[env::kNumStateMetrics], 30.0);  // (400-100)/10 s.
}

TEST(CollectorTest, ProcessStandardizesOverTime) {
  MetricsCollector collector;
  env::StressResult result;
  result.duration_s = 1.0;
  util::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    for (size_t m = 0; m < env::kNumInternalMetrics; ++m) {
      result.before[m] = 0;
      result.after[m] = rng.Gaussian(50.0, 10.0);
    }
    std::vector<double> state = collector.Process(result);
    EXPECT_EQ(state.size(), env::kNumInternalMetrics);
  }
  // After many observations, outputs are roughly standardized.
  for (size_t m = 0; m < env::kNumInternalMetrics; ++m) {
    result.after[m] = 50.0;
  }
  std::vector<double> centered = collector.Standardize(
      collector.ProcessRaw(result));
  for (double v : centered) EXPECT_LT(std::fabs(v), 1.0);
  EXPECT_EQ(collector.observations(), 200u);
}

TEST(CollectorTest, ToPerfPointUsesP99) {
  env::ExternalMetrics ext;
  ext.throughput_tps = 1234.0;
  ext.latency_p99_ms = 99.0;
  ext.latency_mean_ms = 10.0;
  PerfPoint p = MetricsCollector::ToPerfPoint(ext);
  EXPECT_DOUBLE_EQ(p.throughput, 1234.0);
  EXPECT_DOUBLE_EQ(p.latency, 99.0);
}

// --- MemoryPool -------------------------------------------------------------------

TEST(MemoryPoolTest, StoresAndFeeds) {
  MemoryPool pool;
  for (int i = 0; i < 5; ++i) {
    Experience e;
    e.transition.state = {1.0};
    e.transition.action = {0.5};
    e.transition.next_state = {2.0};
    e.transition.reward = i;
    e.from_user_request = i % 2 == 0;
    pool.Add(e);
  }
  EXPECT_EQ(pool.size(), 5u);
  EXPECT_EQ(pool.user_request_count(), 3u);
  rl::UniformReplay replay(16);
  pool.FeedInto(replay);
  EXPECT_EQ(replay.size(), 5u);
  pool.Clear();
  EXPECT_EQ(pool.size(), 0u);
}

// --- Recommender -------------------------------------------------------------------

TEST(RecommenderTest, RendersOnlyChangedActiveKnobs) {
  knobs::KnobRegistry reg = knobs::BuildMysqlCatalog();
  auto bp = *reg.FindIndex("innodb_buffer_pool_size");
  auto flush = *reg.FindIndex("innodb_flush_log_at_trx_commit");
  knobs::KnobSpace space(&reg, {bp, flush});
  Recommender rec(&space);

  knobs::Config base = reg.DefaultConfig();
  knobs::Config config = base;
  config[bp] = 1024.0 * 1024 * 1024;
  config[flush] = 2;
  auto commands = rec.RenderCommands(config, base);
  ASSERT_EQ(commands.size(), 2u);
  EXPECT_EQ(commands[0],
            "SET GLOBAL innodb_buffer_pool_size = 1073741824;");
  EXPECT_EQ(commands[1], "SET GLOBAL innodb_flush_log_at_trx_commit = 2;");
  // Unchanged config renders nothing.
  EXPECT_TRUE(rec.RenderCommands(base, base).empty());
}

TEST(RecommenderTest, BuildConfigRoundTrip) {
  knobs::KnobRegistry reg = knobs::BuildMysqlCatalog();
  knobs::KnobSpace space = knobs::KnobSpace::AllTunable(&reg);
  Recommender rec(&space);
  knobs::Config base = reg.DefaultConfig();
  std::vector<double> action(space.action_dim(), 0.5);
  knobs::Config config = rec.BuildConfig(action, base);
  EXPECT_EQ(config.size(), reg.size());
}

// --- CdbTuner ---------------------------------------------------------------------

CdbTuneOptions FastOptions() {
  CdbTuneOptions o;
  o.max_offline_steps = 60;
  o.steps_per_episode = 10;
  o.online_max_steps = 5;
  o.seed = 5;
  return o;
}

TEST(CdbTunerTest, OfflineTrainingProducesHistory) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 3);
  auto space = knobs::KnobSpace::AllTunable(&db->registry());
  CdbTuner tuner(db.get(), space, FastOptions());
  OfflineTrainResult result = tuner.OfflineTrain(workload::SysbenchReadWrite());
  EXPECT_EQ(result.iterations, 60);
  EXPECT_EQ(result.history.size(), 60u);
  EXPECT_GT(result.initial.throughput, 0.0);
  EXPECT_GE(result.best.throughput, result.initial.throughput * 0.99);
  EXPECT_EQ(tuner.memory_pool().size(), 60u);
  EXPECT_FALSE(tuner.best_offline_action().empty());
}

TEST(CdbTunerTest, OnlineTuneRespectsStepBudgetAndDeploysBest) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 4);
  auto space = knobs::KnobSpace::AllTunable(&db->registry());
  CdbTuner tuner(db.get(), space, FastOptions());
  tuner.OfflineTrain(workload::SysbenchReadWrite());
  db->Reset();
  OnlineTuneResult result = tuner.OnlineTune(workload::SysbenchReadWrite());
  EXPECT_LE(result.steps, 5);
  EXPECT_GE(result.best.throughput, result.initial.throughput * 0.99);
  // The instance is left on the best configuration.
  EXPECT_EQ(db->current_config(), result.best_config);
}

TEST(CdbTunerTest, ScoreWeighsBothMetrics) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA());
  auto space = knobs::KnobSpace::AllTunable(&db->registry());
  CdbTuner tuner(db.get(), space, FastOptions());
  PerfPoint initial{1000.0, 100.0};
  EXPECT_DOUBLE_EQ(tuner.Score(initial, initial), 1.0);
  EXPECT_DOUBLE_EQ(tuner.Score(initial, {2000.0, 50.0}), 0.5 * 2 + 0.5 * 2);
  EXPECT_GT(tuner.Score(initial, {1500.0, 100.0}),
            tuner.Score(initial, {1000.0, 100.0}));
}

TEST(CdbTunerTest, CrashesAreRecordedAndPenalized) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 6);
  auto space = knobs::KnobSpace::AllTunable(&db->registry());
  CdbTuneOptions o = FastOptions();
  o.max_offline_steps = 120;
  o.ddpg.noise_sigma = 0.5;  // Aggressive exploration: crashes will happen.
  o.random_action_prob = 0.8;
  CdbTuner tuner(db.get(), space, o);
  OfflineTrainResult result = tuner.OfflineTrain(workload::SysbenchReadWrite());
  EXPECT_GT(result.crashes, 0);
  bool found_crash_reward = false;
  for (const StepRecord& r : result.history) {
    if (r.crashed) {
      EXPECT_DOUBLE_EQ(r.reward, -100.0);
      found_crash_reward = true;
    }
  }
  EXPECT_TRUE(found_crash_reward);
}

TEST(CdbTunerTest, SetDatabaseEnablesCrossTesting) {
  auto train_db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 7);
  auto tune_db = env::SimulatedCdb::MysqlCdb(env::MakeInstance("X1", 32, 100), 8);
  auto space = knobs::KnobSpace::AllTunable(&train_db->registry());
  CdbTuner tuner(train_db.get(), space, FastOptions());
  tuner.OfflineTrain(workload::SysbenchWriteOnly());
  tuner.SetDatabase(tune_db.get());
  OnlineTuneResult result = tuner.OnlineTune(workload::SysbenchWriteOnly());
  EXPECT_GT(result.initial.throughput, 0.0);
  EXPECT_GE(result.best.throughput, result.initial.throughput * 0.99);
}

TEST(CdbTunerTest, RewardClipBoundsHistory) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 9);
  auto space = knobs::KnobSpace::AllTunable(&db->registry());
  CdbTuneOptions o = FastOptions();
  o.reward_clip = 5.0;
  CdbTuner tuner(db.get(), space, o);
  OfflineTrainResult result = tuner.OfflineTrain(workload::SysbenchReadWrite());
  for (const StepRecord& r : result.history) {
    if (!r.crashed) {
      EXPECT_GE(r.reward, -5.0);
      EXPECT_LE(r.reward, 5.0);
    }
  }
}

TEST(CdbTunerTest, SaveLoadModelRoundTrip) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 12);
  auto space = knobs::KnobSpace::AllTunable(&db->registry());
  CdbTuner trained(db.get(), space, FastOptions());
  trained.OfflineTrain(workload::SysbenchReadWrite());
  std::string path = ::testing::TempDir() + "/cdbtune_model";
  ASSERT_TRUE(trained.SaveModel(path).ok());

  auto db2 = env::SimulatedCdb::MysqlCdb(env::CdbA(), 12);
  CdbTuner restored(db2.get(), space, FastOptions());
  ASSERT_TRUE(restored.LoadModel(path).ok());
  // Identical policies, identical best-experience memory, and identical
  // input normalization — the network only works on inputs scaled the way
  // it saw them in training.
  std::vector<double> state(env::kNumInternalMetrics, 0.2);
  EXPECT_EQ(trained.agent().SelectAction(state, nullptr),
            restored.agent().SelectAction(state, nullptr));
  EXPECT_EQ(trained.best_offline_action(), restored.best_offline_action());
  ASSERT_GT(trained.collector().observations(), 1u);
  EXPECT_EQ(restored.collector().observations(),
            trained.collector().observations());
  std::vector<double> raw(env::kNumInternalMetrics);
  for (size_t i = 0; i < raw.size(); ++i) raw[i] = 100.0 * i + 0.5;
  EXPECT_EQ(trained.collector().Standardize(raw),
            restored.collector().Standardize(raw));
  // The restored model serves a tuning request.
  db2->Reset();
  auto result = restored.OnlineTune(workload::SysbenchReadWrite());
  EXPECT_GE(result.best.throughput, result.initial.throughput * 0.99);
}

TEST(CdbTunerTest, LoadModelMissingFileFails) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 13);
  auto space = knobs::KnobSpace::AllTunable(&db->registry());
  CdbTuner tuner(db.get(), space, FastOptions());
  EXPECT_FALSE(tuner.LoadModel("/nonexistent/path/model").ok());
}

TEST(CdbTunerTest, BootstrapFromPoolFeedsReplay) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 14);
  auto space = knobs::KnobSpace::AllTunable(&db->registry());
  CdbTuner first(db.get(), space, FastOptions());
  first.OfflineTrain(workload::SysbenchReadWrite());
  ASSERT_GT(first.memory_pool().size(), 0u);

  CdbTuner second(db.get(), space, FastOptions());
  EXPECT_EQ(second.agent().replay_size(), 0u);
  second.BootstrapFromPool(first.memory_pool(), /*gradient_steps=*/10);
  EXPECT_EQ(second.agent().replay_size(), first.memory_pool().size());
}

// --- TuningController -----------------------------------------------------------

TEST(ControllerTest, TrainingAndTuningRequests) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 10);
  CdbTuneOptions o = FastOptions();
  TuningController controller(db.get(), o);

  RequestSummary train =
      controller.HandleTrainingRequest(workload::SysbenchReadWrite());
  EXPECT_EQ(train.kind, "train");
  EXPECT_EQ(train.steps, o.max_offline_steps);
  EXPECT_GT(train.best_throughput, 0.0);

  db->Reset();
  RequestSummary tune =
      controller.HandleTuningRequest(workload::SysbenchReadWrite());
  EXPECT_EQ(tune.kind, "tune");
  EXPECT_LE(tune.steps, o.online_max_steps);
  EXPECT_GE(tune.best_throughput, tune.initial_throughput * 0.99);
  // A real recommendation changed at least one knob.
  EXPECT_FALSE(tune.commands.empty());
}

TEST(ControllerTest, TraceReplayRequest) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 11);
  TuningController controller(db.get(), FastOptions());
  controller.HandleTrainingRequest(workload::SysbenchReadWrite());

  workload::OperationGenerator gen(workload::SysbenchReadWrite(), 10000,
                                   util::Rng(12));
  workload::Trace trace = workload::RecordTrace(gen, 200);
  db->Reset();
  RequestSummary summary = controller.HandleTuningRequest(trace);
  EXPECT_EQ(summary.kind, "tune");
  EXPECT_GT(summary.best_throughput, 0.0);
}

}  // namespace
}  // namespace cdbtune::tuner
