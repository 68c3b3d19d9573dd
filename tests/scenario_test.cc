#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "env/simulated_cdb.h"
#include "persist/encoding.h"
#include "safety/guardrail.h"
#include "scenario_harness.h"
#include "server/tuning_server.h"
#include "tuner/cdbtune.h"
#include "tuner/metrics_collector.h"
#include "tuner/tuning_session.h"
#include "util/thread_pool.h"

namespace cdbtune::tests {
namespace {

// --- Shift drivers -----------------------------------------------------------

TEST(ShiftDriverTest, DriversAreDeterministicPureFunctions) {
  const workload::WorkloadSpec base = workload::SysbenchReadOnly();

  DriftingReadWriteRatio mix(3, 2, 0.1);
  EXPECT_EQ(mix.SpecAt(0, base).read_fraction, base.read_fraction);
  EXPECT_EQ(mix.SpecAt(2, base).read_fraction, base.read_fraction);
  const double mid = mix.SpecAt(3, base).read_fraction;
  EXPECT_LT(mid, base.read_fraction);
  EXPECT_GT(mid, 0.1);
  EXPECT_DOUBLE_EQ(mix.SpecAt(4, base).read_fraction, 0.1);
  EXPECT_DOUBLE_EQ(mix.SpecAt(100, base).read_fraction, 0.1);
  // Pure function of the index: repeated queries agree bitwise.
  EXPECT_EQ(mix.SpecAt(3, base).read_fraction, mid);

  WorkingSetBlowup blowup(2, 4.0);
  EXPECT_EQ(blowup.SpecAt(1, base).working_set_gb, base.working_set_gb);
  EXPECT_DOUBLE_EQ(blowup.SpecAt(2, base).working_set_gb,
                   base.working_set_gb * 4.0);
  EXPECT_DOUBLE_EQ(blowup.SpecAt(2, base).data_size_gb,
                   base.data_size_gb * 4.0);

  FlashCrowdConcurrency crowd(1, 8.0);
  EXPECT_EQ(crowd.SpecAt(0, base).client_threads, base.client_threads);
  EXPECT_EQ(crowd.SpecAt(1, base).client_threads, base.client_threads * 8);
}

TEST(ShiftDriverTest, ShiftingDbReproducesBitwiseAcrossInstances) {
  // Two separately built (db, decorator) pairs with the same seed must
  // produce bitwise-identical stress outcomes — the decorator adds no
  // nondeterminism of its own, which is what lets guarded checkpoint
  // replay run through it.
  FlashCrowdConcurrency crowd(2, 4.0);
  auto run = [&] {
    auto inner = env::SimulatedCdb::MysqlCdb(env::CdbA(), 77);
    ShiftingWorkloadDb db(inner.get(), &crowd);
    std::vector<double> tps;
    for (int i = 0; i < 4; ++i) {
      auto result = db.RunStress(workload::SysbenchReadWrite(), 150.0);
      EXPECT_TRUE(result.ok());
      tps.push_back(result->external.throughput_tps);
    }
    EXPECT_EQ(db.stress_calls(), 4u);
    return tps;
  };
  const std::vector<double> first = run();
  const std::vector<double> second = run();
  EXPECT_EQ(first, second);
  // The flash crowd actually bites: concurrency jump changes throughput.
  EXPECT_NE(first[1], first[2]);
}

// --- Guarded session scenarios -----------------------------------------------

/// Policy that always proposes the all-max action: without a guardrail every
/// step would leap to the far corner of knob space; with one, each step is a
/// bounded move the trust region controls.
class PushToMaxPolicy : public tuner::PolicySource {
 public:
  explicit PushToMaxPolicy(size_t dim) : dim_(dim) {}
  std::vector<double> ProposeAction(const std::vector<double>&,
                                    bool) override {
    return std::vector<double>(dim_, 1.0);
  }
  std::vector<double> BestKnownAction() const override { return {}; }

 private:
  size_t dim_;
};

class VectorSink : public tuner::ExperienceSink {
 public:
  void Record(tuner::Experience experience) override {
    experiences.push_back(std::move(experience));
  }
  std::vector<tuner::Experience> experiences;
};

tuner::TuningSessionOptions GuardedOptions() {
  tuner::TuningSessionOptions options;
  options.max_steps = 5;
  options.safety.enabled = true;
  options.safety.warmup_steps = 1;       // Baseline ready after Begin().
  options.safety.regression_margin = 0.05;
  options.safety.rollback_after = 2;     // K.
  return options;
}

env::SimulatedCdb::DegradeSpec BufferPoolDegrade(uint64_t after,
                                                 double severity) {
  env::SimulatedCdb::DegradeSpec degrade;
  degrade.knob = "innodb_buffer_pool_size";
  degrade.after_stress_calls = after;
  degrade.severity = severity;
  return degrade;
}

struct GuardedRun {
  std::unique_ptr<env::SimulatedCdb> db;
  std::unique_ptr<tuner::MetricsCollector> collector;
  std::unique_ptr<PushToMaxPolicy> policy;
  std::unique_ptr<VectorSink> sink;
  std::unique_ptr<tuner::TuningSession> session;
};

GuardedRun MakeGuardedRun(uint64_t seed,
                          const tuner::TuningSessionOptions& options) {
  GuardedRun run;
  run.db = env::SimulatedCdb::MysqlCdb(env::CdbA(), seed);
  // Degrade from the second stress call on: the Begin() baseline is clean,
  // every tuning step pays for its distance from the default buffer pool.
  EXPECT_TRUE(run.db->SetDegrade(BufferPoolDegrade(1, 0.9)).ok());
  auto space = knobs::KnobSpace::AllTunable(&run.db->registry());
  run.collector = std::make_unique<tuner::MetricsCollector>();
  run.policy = std::make_unique<PushToMaxPolicy>(space.action_dim());
  run.sink = std::make_unique<VectorSink>();
  run.session = std::make_unique<tuner::TuningSession>(
      run.db.get(), std::move(space), workload::SysbenchReadWrite(),
      run.collector.get(), run.policy.get(), run.sink.get(), options);
  return run;
}

TEST(GuardedSessionTest, InjectedRegressionRollsBackWithinKSteps) {
  GuardedRun run = MakeGuardedRun(411, GuardedOptions());
  ASSERT_TRUE(run.session->Begin().ok());
  const safety::Guardrail* guard = run.session->guardrail();
  ASSERT_NE(guard, nullptr);
  const knobs::Config base = guard->lkg_config();

  // Step 1: the trust region caps the all-max proposal to a bounded move,
  // but the degraded environment still regresses — violation one.
  auto step1 = run.session->Step();
  ASSERT_TRUE(step1.ok());
  EXPECT_FALSE(step1->rolled_back);
  EXPECT_EQ(guard->violations(), 1);
  EXPECT_EQ(guard->consecutive_violations(), 1);
  EXPECT_LT(guard->trust_width(), guard->options().tr_initial)
      << "violation must shrink the trust region";
  EXPECT_EQ(guard->lkg_config(), base)
      << "a violating config must never become last-known-good";

  // Step 2 = K: second consecutive violation triggers the rollback, and the
  // instance lands back on the last-known-good (baseline) config.
  auto step2 = run.session->Step();
  ASSERT_TRUE(step2.ok());
  EXPECT_TRUE(step2->rolled_back);
  EXPECT_EQ(guard->rollbacks(), 1);
  EXPECT_EQ(guard->consecutive_violations(), 0);
  EXPECT_EQ(run.session->db().current_config(), guard->lkg_config());
  EXPECT_EQ(guard->lkg_config(), base);

  // Quarantine: the violating transition is in the replay pool with its
  // negative reward intact, terminal so it never bootstraps past the
  // rollback.
  ASSERT_EQ(run.sink->experiences.size(), 2u);
  const rl::Transition& quarantined = run.sink->experiences[1].transition;
  EXPECT_TRUE(quarantined.terminal);
  EXPECT_LT(quarantined.reward, 0.0);
  EXPECT_FALSE(run.sink->experiences[0].transition.terminal);
}

TEST(GuardedSessionTest, WorkloadDriftTriggersRewarm) {
  auto inner = env::SimulatedCdb::MysqlCdb(env::CdbA(), 412);
  // Mix inversion at the third stress call (= tuning step 2; call 0 is the
  // Begin() baseline): a read-only tenant turns write-heavy in one step.
  DriftingReadWriteRatio driver(3, 1, 0.05);
  ShiftingWorkloadDb db(inner.get(), &driver);

  tuner::TuningSessionOptions options;
  options.max_steps = 4;
  options.safety.enabled = true;
  // Neutralize the regression machinery (the mix flip also tanks
  // throughput); this scenario isolates the drift path.
  options.safety.regression_margin = 0.9;
  options.safety.rollback_after = 10;
  options.safety.drift_threshold = 0.5;
  options.safety.drift_warmup = 2;

  auto space = knobs::KnobSpace::AllTunable(&db.registry());
  tuner::MetricsCollector collector;
  PushToMaxPolicy policy(space.action_dim());
  VectorSink sink;
  tuner::TuningSession session(&db, std::move(space),
                               workload::SysbenchReadOnly(), &collector,
                               &policy, &sink, options);
  ASSERT_TRUE(session.Begin().ok());
  const safety::Guardrail* guard = session.guardrail();
  ASSERT_NE(guard, nullptr);

  while (!session.done()) {
    ASSERT_TRUE(session.Step().ok());
  }
  EXPECT_EQ(guard->rewarms(), 1) << "one shift, one re-warm-start";
  EXPECT_EQ(guard->rollbacks(), 0);
  const auto& history = session.result().history;
  ASSERT_EQ(history.size(), 4u);
  EXPECT_FALSE(history[0].rewarmed);
  EXPECT_FALSE(history[1].rewarmed);
  EXPECT_TRUE(history[2].rewarmed)
      << "drift lands at the first shifted stress call";
  EXPECT_FALSE(history[3].rewarmed) << "the detector recentered";
}

TEST(GuardedSessionTest, GuardrailStateSurvivesCheckpointBitwise) {
  const tuner::TuningSessionOptions options = GuardedOptions();

  // Run A two steps in — past one rollback, so the guardrail state is
  // nontrivial (reset baseline, shrunk trust region, counters).
  GuardedRun a = MakeGuardedRun(413, options);
  ASSERT_TRUE(a.session->Begin().ok());
  ASSERT_TRUE(a.session->Step().ok());
  ASSERT_TRUE(a.session->Step().ok());
  ASSERT_EQ(a.session->guardrail()->rollbacks(), 1);

  persist::Encoder mid;
  a.collector->SaveBinary(mid);
  a.session->SaveBinary(mid);

  // Restore into a fresh world: same seed, same degrade, same options.
  GuardedRun b = MakeGuardedRun(413, options);
  persist::Decoder dec(mid.bytes());
  ASSERT_TRUE(b.collector->LoadBinary(dec).ok());
  ASSERT_TRUE(b.session->RestoreBinary(dec).ok());
  EXPECT_EQ(b.session->guardrail()->rollbacks(), 1);
  EXPECT_EQ(b.session->guardrail()->trust_width(),
            a.session->guardrail()->trust_width());
  EXPECT_EQ(b.session->guardrail()->lkg_config(),
            a.session->guardrail()->lkg_config());

  // Both finish independently; their end states must be bitwise identical.
  while (!a.session->done()) ASSERT_TRUE(a.session->Step().ok());
  while (!b.session->done()) ASSERT_TRUE(b.session->Step().ok());
  persist::Encoder end_a, end_b;
  a.session->SaveBinary(end_a);
  b.session->SaveBinary(end_b);
  EXPECT_EQ(end_a.bytes(), end_b.bytes())
      << "restored guarded session diverged from the uninterrupted one";
}

TEST(GuardedSessionTest, RestoreRefusesGuardrailOptionMismatch) {
  GuardedRun a = MakeGuardedRun(414, GuardedOptions());
  ASSERT_TRUE(a.session->Begin().ok());
  ASSERT_TRUE(a.session->Step().ok());
  persist::Encoder enc;
  a.session->SaveBinary(enc);

  tuner::TuningSessionOptions other = GuardedOptions();
  other.safety.rollback_after = 3;  // Different K: the counters shift meaning.
  GuardedRun b = MakeGuardedRun(414, other);
  persist::Decoder dec(enc.bytes());
  auto restored = b.session->RestoreBinary(dec);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.code(), util::StatusCode::kDataLoss);
}

// --- Server-path determinism -------------------------------------------------

tuner::CdbTuner& ScenarioTrainedTuner() {
  struct Model {
    std::unique_ptr<env::SimulatedCdb> db;
    std::unique_ptr<tuner::CdbTuner> tuner;
  };
  static Model* model = [] {
    auto* m = new Model;
    m->db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 88);
    auto space = knobs::KnobSpace::AllTunable(&m->db->registry());
    tuner::CdbTuneOptions options;
    options.max_offline_steps = 40;
    options.steps_per_episode = 10;
    options.seed = 88;
    m->tuner = std::make_unique<tuner::CdbTuner>(m->db.get(), space, options);
    m->tuner->OfflineTrain(workload::SysbenchReadWrite());
    return m;
  }();
  return *model->tuner;
}

void ExpectSameGuardedResult(const tuner::OnlineTuneResult& a,
                             const tuner::OnlineTuneResult& b) {
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.best.throughput, b.best.throughput);
  EXPECT_EQ(a.best_config, b.best_config);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].reward, b.history[i].reward);
    EXPECT_EQ(a.history[i].throughput, b.history[i].throughput);
    EXPECT_EQ(a.history[i].rolled_back, b.history[i].rolled_back);
    EXPECT_EQ(a.history[i].rewarmed, b.history[i].rewarmed);
  }
}

TEST(GuardedServerTest, GuardedSessionsAreThreadCountInvariant) {
  struct Observed {
    tuner::OnlineTuneResult result;
    int rollbacks = 0;
    int rewarms = 0;
    double trust_width = 0.0;
  };
  auto run = [&](size_t threads) {
    util::ComputeContext::Get().SetThreads(threads);
    server::TuningServerOptions options;
    options.train_iters_per_round = 2;
    options.safety.enabled = true;  // Server-wide default: guarded tenants.
    options.safety.warmup_steps = 1;
    options.safety.regression_margin = 0.05;
    options.safety.rollback_after = 2;
    server::TuningServer server(options);
    EXPECT_TRUE(server.AdoptModel(ScenarioTrainedTuner()).ok());

    std::vector<int> ids;
    for (int i = 0; i < 4; ++i) {
      server::SessionSpec spec;
      spec.engine = "sim";
      spec.workload = workload::SysbenchReadWrite();
      spec.hardware = env::CdbA();
      spec.seed = 700 + i;
      spec.max_steps = 5;
      if (i < 2) {
        // Two tenants hit an injected mid-tune regression.
        spec.degrade_knob = "innodb_buffer_pool_size";
        spec.degrade_after = 1;
        spec.degrade_severity = 0.9;
      }
      if (i == 3) spec.safety = 0;  // One tenant opts out of the guardrail.
      auto id = server.Open(spec);
      EXPECT_TRUE(id.ok()) << id.status().ToString();
      ids.push_back(*id);
    }
    while (true) {
      auto stepped = server.StepRound();
      EXPECT_TRUE(stepped.ok());
      if (!stepped.ok() || *stepped == 0) break;
    }
    std::vector<Observed> observed;
    for (size_t i = 0; i < ids.size(); ++i) {
      auto status = server.GetStatus(ids[i]);
      EXPECT_TRUE(status.ok());
      Observed o;
      if (status.ok()) {
        EXPECT_EQ(status->safety_enabled, i != 3);
        o.rollbacks = status->rollbacks;
        o.rewarms = status->rewarms;
        o.trust_width = status->trust_width;
      }
      auto result = server.Close(ids[i]);
      EXPECT_TRUE(result.ok());
      if (result.ok()) o.result = *result;
      observed.push_back(std::move(o));
    }
    util::ComputeContext::Get().SetThreads(0);
    return observed;
  };

  auto with1 = run(1);
  auto with4 = run(4);
  ASSERT_EQ(with1.size(), 4u);
  ASSERT_EQ(with4.size(), 4u);
  bool any_rollback = false;
  for (size_t i = 0; i < with1.size(); ++i) {
    ExpectSameGuardedResult(with1[i].result, with4[i].result);
    EXPECT_EQ(with1[i].rollbacks, with4[i].rollbacks);
    EXPECT_EQ(with1[i].rewarms, with4[i].rewarms);
    EXPECT_EQ(with1[i].trust_width, with4[i].trust_width);
    any_rollback = any_rollback || with1[i].rollbacks > 0;
  }
  EXPECT_TRUE(any_rollback)
      << "the degraded tenants should have exercised the rollback path";
}

}  // namespace
}  // namespace cdbtune::tests
