#include <cmath>
#include <string>

#include "gtest/gtest.h"
#include "env/instance.h"
#include "env/metrics.h"
#include "env/perf_model.h"
#include "env/simulated_cdb.h"
#include "workload/workload.h"

namespace cdbtune::env {
namespace {

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

void SetKnob(const knobs::KnobRegistry& reg, knobs::Config& config,
             const char* name, double value) {
  auto idx = reg.FindIndex(name);
  ASSERT_TRUE(idx.has_value()) << name;
  config[*idx] = value;
}

// --- Metrics schema -----------------------------------------------------------

TEST(MetricsTest, SchemaHas63MetricsSplit14And49) {
  EXPECT_EQ(kNumInternalMetrics, 63u);
  EXPECT_EQ(kNumStateMetrics, 14u);
  EXPECT_EQ(kNumCumulativeMetrics, 49u);
  size_t state = 0, cumulative = 0;
  for (size_t i = 0; i < kNumInternalMetrics; ++i) {
    if (InternalMetricKind(i) == MetricKind::kState) {
      ++state;
    } else {
      ++cumulative;
    }
  }
  EXPECT_EQ(state, 14u);
  EXPECT_EQ(cumulative, 49u);
}

TEST(MetricsTest, NamesAreUniqueAndNonEmpty) {
  auto names = AllInternalMetricNames();
  ASSERT_EQ(names.size(), kNumInternalMetrics);
  std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
  for (const auto& n : names) EXPECT_FALSE(n.empty());
}

// --- Instances ---------------------------------------------------------------

TEST(InstanceTest, Table1Presets) {
  EXPECT_DOUBLE_EQ(CdbA().ram_gb, 8);
  EXPECT_DOUBLE_EQ(CdbA().disk_gb, 100);
  EXPECT_DOUBLE_EQ(CdbB().ram_gb, 12);
  EXPECT_DOUBLE_EQ(CdbC().disk_gb, 200);
  EXPECT_DOUBLE_EQ(CdbD().ram_gb, 16);
  EXPECT_DOUBLE_EQ(CdbE().ram_gb, 32);
  EXPECT_DOUBLE_EQ(CdbE().disk_gb, 300);

  auto x1 = CdbX1Variants();
  ASSERT_EQ(x1.size(), 5u);
  EXPECT_DOUBLE_EQ(x1[0].ram_gb, 4);
  EXPECT_DOUBLE_EQ(x1[4].ram_gb, 128);
  for (const auto& hw : x1) EXPECT_DOUBLE_EQ(hw.disk_gb, 100);

  auto x2 = CdbX2Variants();
  ASSERT_EQ(x2.size(), 5u);
  EXPECT_DOUBLE_EQ(x2[0].disk_gb, 32);
  EXPECT_DOUBLE_EQ(x2[4].disk_gb, 512);
  for (const auto& hw : x2) EXPECT_DOUBLE_EQ(hw.ram_gb, 12);
}

// --- Performance model properties --------------------------------------------

class PerfModelTest : public ::testing::Test {
 protected:
  PerfModelTest()
      : db_(SimulatedCdb::MysqlCdb(CdbA())), reg_(db_->registry()) {}

  double Tps(const knobs::Config& config,
             const workload::WorkloadSpec& spec) const {
    return db_->EvaluateNoiseless(config, spec).throughput_tps;
  }

  std::unique_ptr<SimulatedCdb> db_;
  const knobs::KnobRegistry& reg_;
};

TEST_F(PerfModelTest, BufferPoolHelpsThenSwapsNearRamLimit) {
  auto rw = workload::SysbenchReadWrite();
  knobs::Config c = reg_.DefaultConfig();
  SetKnob(reg_, c, "innodb_io_capacity", 10000);
  std::vector<double> tps;
  for (double gb : {0.25, 1.0, 3.0, 6.0, 7.6}) {
    SetKnob(reg_, c, "innodb_buffer_pool_size", gb * kGiB);
    tps.push_back(Tps(c, rw));
  }
  EXPECT_LT(tps[0], tps[1]);
  EXPECT_LT(tps[1], tps[2]);
  EXPECT_LT(tps[2], tps[3]);
  // Non-monotonic: near the RAM limit swapping bites (Figure 1d shape).
  EXPECT_GT(tps[3], tps[4]);
}

TEST_F(PerfModelTest, DurabilityPolicyOrdering) {
  auto wo = workload::SysbenchWriteOnly();
  knobs::Config c = reg_.DefaultConfig();
  SetKnob(reg_, c, "innodb_io_capacity", 10000);
  SetKnob(reg_, c, "innodb_flush_log_at_trx_commit", 1);
  double strict = Tps(c, wo);
  SetKnob(reg_, c, "innodb_flush_log_at_trx_commit", 2);
  double relaxed = Tps(c, wo);
  SetKnob(reg_, c, "innodb_flush_log_at_trx_commit", 0);
  double lazy = Tps(c, wo);
  EXPECT_LT(strict, relaxed);
  EXPECT_LE(relaxed, lazy * 1.001);
}

TEST_F(PerfModelTest, SmallRedoLogCausesCheckpointStalls) {
  auto wo = workload::SysbenchWriteOnly();
  knobs::Config c = reg_.DefaultConfig();
  SetKnob(reg_, c, "innodb_io_capacity", 10000);
  SetKnob(reg_, c, "innodb_log_file_size", 8.0 * 1024 * 1024);
  SetKnob(reg_, c, "innodb_log_files_in_group", 2);
  double small_log = Tps(c, wo);
  SetKnob(reg_, c, "innodb_log_file_size", 2.0 * kGiB);
  SetKnob(reg_, c, "innodb_log_files_in_group", 4);
  double big_log = Tps(c, wo);
  EXPECT_GT(big_log, small_log * 1.2);
}

TEST_F(PerfModelTest, IoThreadsHaveInteriorOptimum) {
  auto ro = workload::SysbenchReadOnly();
  knobs::Config c = reg_.DefaultConfig();
  SetKnob(reg_, c, "innodb_buffer_pool_size", 2.0 * kGiB);
  SetKnob(reg_, c, "innodb_read_io_threads", 1);
  double few = Tps(c, ro);
  SetKnob(reg_, c, "innodb_read_io_threads", 16);
  double mid = Tps(c, ro);
  SetKnob(reg_, c, "innodb_read_io_threads", 64);
  double many = Tps(c, ro);
  EXPECT_GT(mid, few);
  EXPECT_GT(mid, many);  // Thrashing beyond ~1.5x cores.
}

TEST_F(PerfModelTest, SortBufferMattersForOlapOnly) {
  knobs::Config c = reg_.DefaultConfig();
  double tpch_small = Tps(c, workload::Tpch());
  double wo_small = Tps(c, workload::SysbenchWriteOnly());
  SetKnob(reg_, c, "sort_buffer_size", 64.0 * 1024 * 1024);
  double tpch_big = Tps(c, workload::Tpch());
  double wo_big = Tps(c, workload::SysbenchWriteOnly());
  EXPECT_GT(tpch_big, tpch_small * 1.1);
  EXPECT_NEAR(wo_big, wo_small, wo_small * 0.02);
}

TEST_F(PerfModelTest, AdmissionThrottlingTradesThroughputForTail) {
  // The C_T/C_L trade-off lever (Appendix C.1.2): limiting
  // innodb_thread_concurrency tightens the p99 tail at little or some
  // throughput cost.
  auto rw = workload::SysbenchReadWrite();
  knobs::Config c = reg_.DefaultConfig();
  SetKnob(reg_, c, "innodb_buffer_pool_size", 5.0 * kGiB);
  SetKnob(reg_, c, "innodb_io_capacity", 8000);
  SetKnob(reg_, c, "max_connections", 4000);
  SetKnob(reg_, c, "innodb_thread_concurrency", 0);
  auto open = db_->EvaluateNoiseless(c, rw);
  SetKnob(reg_, c, "innodb_thread_concurrency", 50);
  auto throttled = db_->EvaluateNoiseless(c, rw);
  EXPECT_LT(throttled.latency_p99_ms, open.latency_p99_ms);
  EXPECT_LE(throttled.throughput_tps, open.throughput_tps * 1.001);
}

TEST_F(PerfModelTest, MaxConnectionsBelowOfferedLoadHurts) {
  auto rw = workload::SysbenchReadWrite();  // 1500 client threads.
  knobs::Config c = reg_.DefaultConfig();
  SetKnob(reg_, c, "max_connections", 50);
  double starved = Tps(c, rw);
  SetKnob(reg_, c, "max_connections", 4000);
  double open = Tps(c, rw);
  EXPECT_GT(open, starved);
}

TEST_F(PerfModelTest, HigherSkewImprovesHitRateAtEqualPool) {
  knobs::Config c = reg_.DefaultConfig();
  SetKnob(reg_, c, "innodb_buffer_pool_size", 1.0 * kGiB);
  auto uniform = workload::SysbenchReadOnly();
  auto skewed = uniform;
  skewed.access_skew = 0.9;
  auto u = db_->EvaluateNoiseless(c, uniform);
  auto s = db_->EvaluateNoiseless(c, skewed);
  EXPECT_GT(s.buffer_hit_rate, u.buffer_hit_rate);
}

TEST_F(PerfModelTest, LatencyInverseToThroughput) {
  auto rw = workload::SysbenchReadWrite();
  knobs::Config slow = reg_.DefaultConfig();
  knobs::Config fast = slow;
  SetKnob(reg_, fast, "innodb_buffer_pool_size", 6.0 * kGiB);
  SetKnob(reg_, fast, "innodb_io_capacity", 10000);
  auto ps = db_->EvaluateNoiseless(slow, rw);
  auto pf = db_->EvaluateNoiseless(fast, rw);
  EXPECT_GT(pf.throughput_tps, ps.throughput_tps);
  EXPECT_LT(pf.latency_p99_ms, ps.latency_p99_ms);
  EXPECT_GT(ps.latency_p99_ms, ps.latency_mean_ms);
}

TEST_F(PerfModelTest, BetterHardwareGivesBetterDefaults) {
  auto rw = workload::SysbenchReadWrite();
  auto small = SimulatedCdb::MysqlCdb(CdbA());
  auto large = SimulatedCdb::MysqlCdb(MakeInstance("big", 64, 500));
  knobs::Config tuned = small->registry().DefaultConfig();
  SetKnob(small->registry(), tuned, "innodb_buffer_pool_size", 6.0 * kGiB);
  // The same tuned config cannot be worse on strictly better hardware.
  EXPECT_GE(large->EvaluateNoiseless(tuned, rw).throughput_tps,
            small->EvaluateNoiseless(tuned, rw).throughput_tps * 0.99);
}

TEST_F(PerfModelTest, DeviceClassesOrdering) {
  auto rw = workload::SysbenchReadWrite();
  knobs::Config c = reg_.DefaultConfig();
  auto hdd = SimulatedCdb::MysqlCdb(MakeInstance("hdd", 8, 100, DiskType::kHdd));
  auto ssd = SimulatedCdb::MysqlCdb(MakeInstance("ssd", 8, 100, DiskType::kSsd));
  auto nvm = SimulatedCdb::MysqlCdb(MakeInstance("nvm", 8, 100, DiskType::kNvm));
  double t_hdd = hdd->EvaluateNoiseless(c, rw).throughput_tps;
  double t_ssd = ssd->EvaluateNoiseless(c, rw).throughput_tps;
  double t_nvm = nvm->EvaluateNoiseless(c, rw).throughput_tps;
  EXPECT_LT(t_hdd, t_ssd);
  EXPECT_LE(t_ssd, t_nvm);
}

// --- Minor knob surface ---------------------------------------------------------

TEST(MinorSurfaceTest, DeterministicAndBounded) {
  knobs::KnobRegistry reg = knobs::BuildMysqlCatalog();
  EngineProfile profile = MysqlCdbProfile();
  MinorKnobSurface surface(reg, profile.core_knob_names, 0.18);
  MinorKnobSurface surface2(reg, profile.core_knob_names, 0.18);
  knobs::Config defaults = reg.DefaultConfig();
  EXPECT_DOUBLE_EQ(surface.Evaluate(defaults), surface2.Evaluate(defaults));
  EXPECT_GT(surface.num_minor_knobs(), 200u);

  util::Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    knobs::Config random = defaults;
    for (size_t k = 0; k < reg.size(); ++k) {
      random[k] = knobs::DenormalizeKnobValue(reg.def(k), rng.Uniform());
    }
    double f = surface.Evaluate(random);
    EXPECT_GT(f, 1.0 - 0.18 * 1.5);
    EXPECT_LT(f, 1.0 + 0.18 * 1.1);
  }
}

TEST(MinorSurfaceTest, DefaultsScoreAboveRandomOnAverage) {
  knobs::KnobRegistry reg = knobs::BuildMysqlCatalog();
  EngineProfile profile = MysqlCdbProfile();
  MinorKnobSurface surface(reg, profile.core_knob_names, 0.18);
  double default_score = surface.Evaluate(reg.DefaultConfig());
  util::Rng rng(6);
  double random_sum = 0.0;
  const int trials = 40;
  for (int i = 0; i < trials; ++i) {
    knobs::Config random = reg.DefaultConfig();
    for (size_t k = 0; k < reg.size(); ++k) {
      random[k] = knobs::DenormalizeKnobValue(reg.def(k), rng.Uniform());
    }
    random_sum += surface.Evaluate(random);
  }
  EXPECT_GT(default_score, random_sum / trials);
}

// --- SimulatedCdb behaviour ------------------------------------------------------

TEST(SimulatedCdbTest, CrashOnOversizedRedoLog) {
  auto db = SimulatedCdb::MysqlCdb(CdbA());
  knobs::Config c = db->registry().DefaultConfig();
  SetKnob(db->registry(), c, "innodb_log_file_size", 16.0 * kGiB);
  SetKnob(db->registry(), c, "innodb_log_files_in_group", 8);
  util::Status s = db->ApplyConfig(c);
  EXPECT_EQ(s.code(), util::StatusCode::kCrashed);
  EXPECT_EQ(db->crash_count(), 1);
  // The previous (default) configuration survives the restart.
  EXPECT_DOUBLE_EQ(
      db->current_config()[*db->registry().FindIndex("innodb_log_file_size")],
      db->registry().def(*db->registry().FindIndex("innodb_log_file_size"))
          .default_value);
}

TEST(SimulatedCdbTest, CrashOnMemoryOvercommit) {
  auto db = SimulatedCdb::MysqlCdb(CdbA());  // 8 GB RAM.
  knobs::Config c = db->registry().DefaultConfig();
  SetKnob(db->registry(), c, "innodb_buffer_pool_size", 16.0 * kGiB);
  EXPECT_EQ(db->ApplyConfig(c).code(), util::StatusCode::kCrashed);
}

TEST(SimulatedCdbTest, CountersAreCumulativeAcrossRuns) {
  auto db = SimulatedCdb::MysqlCdb(CdbA());
  auto rw = workload::SysbenchReadWrite();
  auto r1 = db->RunStress(rw, 150.0);
  ASSERT_TRUE(r1.ok());
  auto r2 = db->RunStress(rw, 150.0);
  ASSERT_TRUE(r2.ok());
  // The second run starts where the first ended.
  for (size_t i = kNumStateMetrics; i < kNumInternalMetrics; ++i) {
    EXPECT_GE(r2.value().before[i], r1.value().before[i]);
    EXPECT_GE(r2.value().after[i], r2.value().before[i]) << "metric " << i;
  }
}

TEST(SimulatedCdbTest, NoiseIsSmallAndSeedDependent) {
  auto rw = workload::SysbenchReadWrite();
  auto db1 = SimulatedCdb::MysqlCdb(CdbA(), 1);
  auto db2 = SimulatedCdb::MysqlCdb(CdbA(), 2);
  double t1 = db1->RunStress(rw, 150.0).value().external.throughput_tps;
  double t2 = db2->RunStress(rw, 150.0).value().external.throughput_tps;
  double noiseless = db1->EvaluateNoiseless(db1->registry().DefaultConfig(), rw)
                         .throughput_tps;
  EXPECT_NE(t1, t2);
  EXPECT_NEAR(t1, noiseless, noiseless * 0.05);
  EXPECT_NEAR(t2, noiseless, noiseless * 0.05);
}

TEST(SimulatedCdbTest, ResetRestoresDefaultsAndClearsCounters) {
  auto db = SimulatedCdb::MysqlCdb(CdbA());
  knobs::Config c = db->registry().DefaultConfig();
  SetKnob(db->registry(), c, "innodb_buffer_pool_size", 1.0 * kGiB);
  ASSERT_TRUE(db->ApplyConfig(c).ok());
  db->RunStress(workload::SysbenchReadWrite(), 150.0).value();
  db->Reset();
  EXPECT_EQ(db->current_config(),
            db->registry().DefaultConfig());
  auto r = db->RunStress(workload::SysbenchReadWrite(), 150.0);
  // Counters restarted from zero.
  EXPECT_DOUBLE_EQ(r.value().before[kNumStateMetrics], 0.0);
}

TEST(SimulatedCdbTest, RejectsWrongConfigSize) {
  auto db = SimulatedCdb::MysqlCdb(CdbA());
  knobs::Config wrong(10, 0.0);
  EXPECT_EQ(db->ApplyConfig(wrong).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_FALSE(db->RunStress(workload::Tpcc(), -5.0).ok());
}

TEST(SimulatedCdbTest, OtherEngineProfilesWork) {
  auto pg = SimulatedCdb::Postgres(CdbD());
  auto mongo = SimulatedCdb::Mongo(CdbE());
  auto local = SimulatedCdb::LocalMysql(CdbC());
  EXPECT_EQ(pg->registry().TunableIndices().size(),
            knobs::kPostgresTunableKnobs);
  EXPECT_EQ(mongo->registry().TunableIndices().size(),
            knobs::kMongoTunableKnobs);
  EXPECT_GT(pg->RunStress(workload::Tpcc(), 150.0)
                .value()
                .external.throughput_tps,
            0.0);
  EXPECT_GT(mongo->RunStress(workload::Ycsb(), 150.0)
                .value()
                .external.throughput_tps,
            0.0);
  // Local MySQL is faster than cloud CDB under identical config/hardware
  // (no proxy hop).
  auto cdb = SimulatedCdb::MysqlCdb(CdbC());
  auto w = workload::Tpcc();
  EXPECT_GT(local->EvaluateNoiseless(local->registry().DefaultConfig(), w)
                .throughput_tps,
            cdb->EvaluateNoiseless(cdb->registry().DefaultConfig(), w)
                .throughput_tps);
}

TEST(SimulatedCdbTest, PostgresSharedBuffersMatter) {
  auto pg = SimulatedCdb::Postgres(CdbD());
  knobs::Config c = pg->registry().DefaultConfig();
  auto w = workload::Tpcc();
  double small = pg->EvaluateNoiseless(c, w).throughput_tps;
  SetKnob(pg->registry(), c, "shared_buffers", 4.0 * kGiB);
  double big = pg->EvaluateNoiseless(c, w).throughput_tps;
  EXPECT_GT(big, small);
}

TEST(SimulatedCdbTest, MongoCacheMatters) {
  auto mongo = SimulatedCdb::Mongo(CdbE());
  knobs::Config c = mongo->registry().DefaultConfig();
  auto w = workload::Ycsb();
  double small = mongo->EvaluateNoiseless(c, w).throughput_tps;
  SetKnob(mongo->registry(), c, "wiredtiger_cache_size", 8.0 * kGiB);
  double big = mongo->EvaluateNoiseless(c, w).throughput_tps;
  EXPECT_GT(big, small);
}

// --- Checkpoint codec ------------------------------------------------------------

std::string SavedState(const DbInterface& db) {
  persist::Encoder enc;
  db.SaveBinary(enc);
  return enc.Release();
}

util::Status Restore(DbInterface& db, const std::string& bytes) {
  persist::Decoder dec(bytes);
  CDBTUNE_RETURN_IF_ERROR(db.RestoreBinary(dec));
  return dec.Finish();
}

// A restored instance carries on exactly like the saved one: same config,
// crash count and counters, the same noise stream, and the same stress-call
// count, so the injected regression starts on the same call.
TEST(SimulatedCdbTest, RestoredInstanceStressesBitwiseLikeTheSaved) {
  SimulatedCdb::DegradeSpec degrade;
  degrade.knob = "innodb_buffer_pool_size";
  degrade.after_stress_calls = 2;
  degrade.severity = 0.5;
  auto make = [&] {
    auto db = SimulatedCdb::MysqlCdb(CdbA(), 7);
    EXPECT_TRUE(db->SetDegrade(degrade).ok());
    return db;
  };
  const auto rw = workload::SysbenchReadWrite();
  auto saved = make();
  knobs::Config tuned = saved->registry().DefaultConfig();
  SetKnob(saved->registry(), tuned, "innodb_buffer_pool_size", 4.0 * kGiB);
  knobs::Config oom = tuned;
  SetKnob(saved->registry(), oom, "innodb_buffer_pool_size", 16.0 * kGiB);
  ASSERT_TRUE(saved->ApplyConfig(tuned).ok());
  ASSERT_TRUE(saved->RunStress(rw, 150.0).ok());
  EXPECT_EQ(saved->ApplyConfig(oom).code(), util::StatusCode::kCrashed);
  ASSERT_TRUE(saved->RunStress(rw, 150.0).ok());

  auto restored = make();
  ASSERT_TRUE(Restore(*restored, SavedState(*saved)).ok());
  EXPECT_EQ(restored->current_config(), tuned);
  EXPECT_EQ(restored->crash_count(), 1);
  for (int i = 0; i < 2; ++i) {  // The first of these is degraded.
    auto a = saved->RunStress(rw, 150.0);
    auto b = restored->RunStress(rw, 150.0);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->before, b->before);
    EXPECT_EQ(a->after, b->after);
    EXPECT_EQ(a->external.throughput_tps, b->external.throughput_tps);
    EXPECT_EQ(a->external.latency_p99_ms, b->external.latency_p99_ms);
  }
  EXPECT_EQ(SavedState(*saved), SavedState(*restored));
}

// Every catalog's default config is a fixed point of its Sanitize, so a
// fresh instance of each engine flavour restores.
TEST(SimulatedCdbTest, EveryCatalogRestoresAFreshInstance) {
  for (auto make : {&SimulatedCdb::MysqlCdb, &SimulatedCdb::LocalMysql,
                    &SimulatedCdb::Postgres, &SimulatedCdb::Mongo}) {
    auto saved = make(CdbA(), 3);
    auto restored = make(CdbA(), 4);
    ASSERT_TRUE(Restore(*restored, SavedState(*saved)).ok());
    EXPECT_EQ(SavedState(*saved), SavedState(*restored));
  }
}

/// A SimulatedCdb state payload built field by field: config, counter
/// count and the 63 counters, rng text, crash count, stress calls.
std::string EncodedState(const knobs::Config& config, uint64_t counter_count,
                         const std::string& rng_text, int64_t crashes) {
  persist::Encoder enc;
  enc.WriteDoubleVec(config);
  enc.WriteU64(counter_count);
  for (size_t i = 0; i < kNumInternalMetrics; ++i) enc.WriteDouble(1.0);
  enc.WriteString(rng_text);
  enc.WriteI64(crashes);
  enc.WriteU64(0);
  return enc.Release();
}

// Checkpoint bytes are range-checked before they reach the instance: each
// mutant is DATA_LOSS and leaves the instance as it was. A config of the
// wrong length is also how an older checkpoint's env-op log count reads.
TEST(SimulatedCdbTest, RestoreRejectsOutOfRangeStateAsDataLoss) {
  auto db = SimulatedCdb::MysqlCdb(CdbA());
  const knobs::KnobRegistry& reg = db->registry();
  const knobs::Config defaults = reg.DefaultConfig();
  const std::string rng_text = util::Rng(9).SerializeState();
  const size_t bp = *reg.FindIndex("innodb_buffer_pool_size");
  knobs::Config beyond = defaults;
  beyond[bp] = reg.def(bp).max_value * 2;
  knobs::Config nan = defaults;
  nan[bp] = std::nan("");
  ASSERT_TRUE(Restore(*db, EncodedState(defaults, kNumInternalMetrics,
                                        rng_text, 2))
                  .ok());
  const std::string before = SavedState(*db);

  for (const std::string& mutant :
       {EncodedState(knobs::Config(3, 0.0), kNumInternalMetrics, rng_text, 0),
        EncodedState(beyond, kNumInternalMetrics, rng_text, 0),
        EncodedState(nan, kNumInternalMetrics, rng_text, 0),
        EncodedState(defaults, kNumInternalMetrics - 1, rng_text, 0),
        EncodedState(defaults, kNumInternalMetrics, "not an rng state", 0),
        EncodedState(defaults, kNumInternalMetrics, rng_text, -1),
        EncodedState(defaults, kNumInternalMetrics, rng_text,
                     int64_t{1} << 31)}) {
    EXPECT_EQ(Restore(*db, mutant).code(), util::StatusCode::kDataLoss);
    EXPECT_EQ(SavedState(*db), before);
  }
}

}  // namespace
}  // namespace cdbtune::env
