// Property-style sweeps over the cross-products the unit tests sample only
// pointwise: the performance model over every (workload, hardware, device)
// combination, the reward function over a delta grid, engine behaviour
// under randomized operation streams, and serialization round trips across
// network shapes.
#include <cmath>

#include "gtest/gtest.h"
#include "engine/mini_cdb.h"
#include "env/simulated_cdb.h"
#include "rl/ddpg.h"
#include "tuner/reward.h"

namespace cdbtune {
namespace {

// --- Performance-model invariants over the full grid -------------------------

struct ModelCase {
  workload::WorkloadType workload;
  double ram_gb;
  double disk_gb;
  env::DiskType disk;
};

class PerfModelGridTest : public ::testing::TestWithParam<ModelCase> {};

TEST_P(PerfModelGridTest, OutcomeInvariants) {
  ModelCase c = GetParam();
  auto hw = env::MakeInstance("grid", c.ram_gb, c.disk_gb, c.disk);
  auto db = env::SimulatedCdb::MysqlCdb(hw);
  auto spec = workload::MakeWorkload(c.workload);
  const auto& reg = db->registry();

  util::Rng rng(1234);
  for (int trial = 0; trial < 15; ++trial) {
    knobs::Config config = reg.DefaultConfig();
    // Random but *startable* configurations: respect the crash rules via
    // ApplyConfig and skip rejected draws.
    for (size_t i = 0; i < reg.size(); ++i) {
      config[i] = knobs::DenormalizeKnobValue(reg.def(i), rng.Uniform());
    }
    if (!db->ApplyConfig(config).ok()) continue;
    env::PerfOutcome out = db->EvaluateNoiseless(config, spec);

    EXPECT_GT(out.throughput_tps, 0.0);
    EXPECT_TRUE(std::isfinite(out.throughput_tps));
    EXPECT_GT(out.latency_mean_ms, 0.0);
    EXPECT_GE(out.latency_p99_ms, out.latency_mean_ms);
    EXPECT_GE(out.buffer_hit_rate, 0.0);
    EXPECT_LE(out.buffer_hit_rate, 1.0);
    EXPECT_GE(out.swap_penalty, 1.0);
    EXPECT_GE(out.checkpoint_penalty, 1.0);
    EXPECT_GE(out.lock_contention, 0.0);
    EXPECT_LT(out.lock_contention, 1.0);
    EXPECT_GE(out.physical_read_rate, 0.0);
    EXPECT_GE(out.page_flush_rate, 0.0);
    // Little's law consistency: mean latency ~ clients / throughput.
    double expected_mean =
        spec.client_threads * 0.8 * 1000.0 / out.throughput_tps;
    EXPECT_NEAR(out.latency_mean_ms, expected_mean, expected_mean * 0.01);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PerfModelGridTest,
    ::testing::Values(
        ModelCase{workload::WorkloadType::kSysbenchReadWrite, 8, 100,
                  env::DiskType::kSsd},
        ModelCase{workload::WorkloadType::kSysbenchReadOnly, 4, 32,
                  env::DiskType::kHdd},
        ModelCase{workload::WorkloadType::kSysbenchWriteOnly, 12, 200,
                  env::DiskType::kNvm},
        ModelCase{workload::WorkloadType::kTpcc, 16, 200,
                  env::DiskType::kSsd},
        ModelCase{workload::WorkloadType::kTpch, 32, 300,
                  env::DiskType::kHdd},
        ModelCase{workload::WorkloadType::kYcsb, 128, 512,
                  env::DiskType::kNvm}));

// All engine profiles obey the same invariants under their own catalogs.
class ProfileGridTest : public ::testing::TestWithParam<int> {};

TEST_P(ProfileGridTest, RandomConfigsStayFinite) {
  std::unique_ptr<env::SimulatedCdb> db;
  workload::WorkloadSpec spec = workload::Tpcc();
  switch (GetParam()) {
    case 0:
      db = env::SimulatedCdb::MysqlCdb(env::CdbB());
      break;
    case 1:
      db = env::SimulatedCdb::Postgres(env::CdbD());
      break;
    case 2:
      db = env::SimulatedCdb::Mongo(env::CdbE());
      spec = workload::Ycsb();
      break;
    default:
      db = env::SimulatedCdb::LocalMysql(env::CdbC());
      break;
  }
  const auto& reg = db->registry();
  util::Rng rng(77);
  int started = 0;
  for (int trial = 0; trial < 25; ++trial) {
    knobs::Config config = reg.DefaultConfig();
    for (size_t i = 0; i < reg.size(); ++i) {
      config[i] = knobs::DenormalizeKnobValue(reg.def(i), rng.Uniform());
    }
    if (!db->ApplyConfig(config).ok()) continue;
    ++started;
    auto result = db->RunStress(spec, 150.0);
    ASSERT_TRUE(result.ok());
    EXPECT_GT(result.value().external.throughput_tps, 0.0);
    EXPECT_TRUE(std::isfinite(result.value().external.latency_p99_ms));
  }
  EXPECT_GT(started, 5);  // Most random configs must be startable.
}

INSTANTIATE_TEST_SUITE_P(Engines, ProfileGridTest, ::testing::Values(0, 1, 2, 3));

// --- Reward function over a delta grid -----------------------------------------

struct RewardCase {
  double d0;
  double dp;
};

class RewardGridTest : public ::testing::TestWithParam<RewardCase> {};

TEST_P(RewardGridTest, SignTracksOverallProgress) {
  RewardCase c = GetParam();
  for (bool clamp : {false, true}) {
    double r = tuner::RewardFunction::MetricReward(c.d0, c.dp, clamp);
    EXPECT_TRUE(std::isfinite(r));
    if (c.d0 > 0.0) {
      // Positive overall progress never yields a negative reward; the clamp
      // rule can only zero it.
      EXPECT_GE(r, 0.0);
      if (clamp && c.dp < 0.0) {
        EXPECT_DOUBLE_EQ(r, 0.0);
      }
    } else if (c.d0 < 0.0) {
      EXPECT_LE(r, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DeltaGrid, RewardGridTest,
    ::testing::Values(RewardCase{0.5, 0.5}, RewardCase{0.5, -0.5},
                      RewardCase{0.5, 0.0}, RewardCase{-0.5, 0.5},
                      RewardCase{-0.5, -0.5}, RewardCase{0.0, 0.3},
                      RewardCase{2.0, 1.0}, RewardCase{-0.9, -0.9},
                      RewardCase{0.01, -0.01}, RewardCase{-0.01, 0.01}));

TEST(RewardMonotonicityTest, LargerGainsGetLargerRewards) {
  // With equal step-over-step change, the reward grows with overall gain.
  double prev = 0.0;
  for (double d0 : {0.1, 0.3, 0.6, 1.0, 2.0}) {
    double r = tuner::RewardFunction::MetricReward(d0, 0.1, true);
    EXPECT_GT(r, prev);
    prev = r;
  }
}

// --- Mini engine under randomized mixed operations -------------------------------

struct EngineCase {
  uint64_t seed;
  size_t frames;
};

class MiniEngineRandomOpsTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(MiniEngineRandomOpsTest, TreeStaysConsistentUnderPressure) {
  EngineCase c = GetParam();
  engine::VirtualClock clock;
  engine::DiskManager disk(&clock, env::DiskType::kSsd,
                           200000ull * engine::kPageSize);
  engine::BufferPool pool(&disk, &clock, c.frames);
  auto tree = engine::BTree::Create(&pool).value();

  util::Rng rng(c.seed);
  char payload[engine::kRecordPayload] = {};
  std::set<uint64_t> inserted;
  for (int op = 0; op < 4000; ++op) {
    double roll = rng.Uniform();
    if (roll < 0.5 || inserted.empty()) {
      uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, 100000));
      payload[0] = static_cast<char>(key & 0x7F);
      ASSERT_TRUE(tree->Insert(key, payload).ok());
      inserted.insert(key);
    } else if (roll < 0.75) {
      uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, 100000));
      auto found = tree->Get(key, nullptr);
      ASSERT_TRUE(found.ok());
      EXPECT_EQ(found.value(), inserted.count(key) > 0) << key;
    } else {
      uint64_t start = static_cast<uint64_t>(rng.UniformInt(0, 100000));
      ASSERT_TRUE(tree->Scan(start, 50).ok());
    }
  }
  EXPECT_EQ(tree->num_entries(), inserted.size());
  EXPECT_TRUE(tree->CheckInvariants().ok());
  // Nothing stays pinned after the workload.
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.Resize(c.frames).ok());  // Would fail if pages were pinned.
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(Patterns, MiniEngineRandomOpsTest,
                         ::testing::Values(EngineCase{1, 8},
                                           EngineCase{2, 64},
                                           EngineCase{3, 512},
                                           EngineCase{4, 16}));

// --- DDPG serialization across architectures -------------------------------------

class DdpgShapeTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(DdpgShapeTest, SaveLoadPreservesPolicyForAnyShape) {
  auto [state_dim, action_dim] = GetParam();
  rl::DdpgOptions o;
  o.state_dim = state_dim;
  o.action_dim = action_dim;
  o.actor_hidden = {32, 16};
  o.critic_embed = 16;
  o.critic_hidden = {16};
  o.batch_size = 4;
  rl::DdpgAgent agent(o);
  util::Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    rl::Transition t;
    t.state.resize(state_dim);
    t.action.resize(action_dim, 0.5);
    t.next_state.resize(state_dim);
    for (double& v : t.state) v = rng.Gaussian();
    for (double& v : t.next_state) v = rng.Gaussian();
    t.reward = rng.Gaussian();
    agent.Observe(std::move(t));
  }
  for (int i = 0; i < 3; ++i) agent.TrainStep();

  persist::ChunkWriter writer;
  agent.AppendChunks(writer);
  auto bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok());
  auto file = persist::ChunkFile::Parse(*std::move(bytes));
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  rl::DdpgAgent restored(o);
  ASSERT_TRUE(restored.RestoreFromChunks(*file).ok());
  std::vector<double> probe(state_dim, 0.3);
  EXPECT_EQ(agent.SelectAction(probe, nullptr),
            restored.SelectAction(probe, nullptr));
}

INSTANTIATE_TEST_SUITE_P(Shapes, DdpgShapeTest,
                         ::testing::Values(std::make_pair(4ul, 2ul),
                                           std::make_pair(63ul, 16ul),
                                           std::make_pair(63ul, 266ul),
                                           std::make_pair(10ul, 169ul)));

// --- Knob space prefix/action consistency across counts ----------------------------

class KnobPrefixTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KnobPrefixTest, PrefixSpacesAreNestedAndConsistent) {
  size_t count = GetParam();
  knobs::KnobRegistry reg = knobs::BuildMysqlCatalog();
  auto order = reg.TunableIndices();
  auto space = knobs::KnobSpace::FromOrderPrefix(&reg, order, count);
  EXPECT_EQ(space.action_dim(), count);

  knobs::Config base = reg.DefaultConfig();
  std::vector<double> action(count);
  util::Rng rng(count);
  for (double& a : action) a = rng.Uniform();
  knobs::Config config = space.ActionToConfig(action, base);
  // Knobs beyond the prefix are untouched.
  for (size_t i = count; i < order.size(); ++i) {
    EXPECT_DOUBLE_EQ(config[order[i]], base[order[i]]);
  }
  // Round trip through the space reproduces the active values.
  auto recovered = space.ConfigToAction(config);
  knobs::Config config2 = space.ActionToConfig(recovered, base);
  EXPECT_EQ(config, config2);
}

INSTANTIATE_TEST_SUITE_P(Counts, KnobPrefixTest,
                         ::testing::Values(1, 20, 65, 130, 266));

}  // namespace
}  // namespace cdbtune
