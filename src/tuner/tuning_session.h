#ifndef CDBTUNE_TUNER_TUNING_SESSION_H_
#define CDBTUNE_TUNER_TUNING_SESSION_H_

#include <memory>
#include <vector>

#include "env/db_interface.h"
#include "knobs/registry.h"
#include "persist/encoding.h"
#include "safety/guarded_policy.h"
#include "safety/guardrail.h"
#include "tuner/memory_pool.h"
#include "tuner/metrics_collector.h"
#include "tuner/policy_source.h"
#include "tuner/recommender.h"
#include "tuner/reward.h"
#include "util/status.h"
#include "workload/workload.h"

namespace cdbtune::tuner {

/// Trace of one environment step.
struct StepRecord {
  int step = 0;
  double throughput = 0.0;
  double latency = 0.0;
  double reward = 0.0;
  bool crashed = false;
  /// The guardrail restored the last-known-good config after this step
  /// (K consecutive regressions, or a crash that exhausted the budget).
  bool rolled_back = false;
  /// The guardrail re-warm-started after this step (workload drift).
  bool rewarmed = false;
};

/// Output of one online tuning request.
struct OnlineTuneResult {
  PerfPoint initial;
  PerfPoint best;
  knobs::Config best_config;
  int steps = 0;
  std::vector<StepRecord> history;
};

/// Lifecycle of one tuning session. Begin() measures the user's baseline,
/// Step() runs online tuning steps, and Finish() (called explicitly or
/// automatically once the step budget is spent) deploys the best
/// configuration found:
///
///   kCreated --Begin--> kTuning --Step x N--> kFinished
///        \--Begin fails--> kFailed    \--stress fails--> kFinished
enum class SessionPhase { kCreated, kTuning, kFinished, kFailed };

const char* SessionPhaseName(SessionPhase phase);

struct TuningSessionOptions {
  /// Online tuning step budget (Section 2.1.2: maximum of 5).
  int max_steps = 5;
  double stress_duration_s = 150.0;
  RewardFunctionType reward_type = RewardFunctionType::kCdbTune;
  double throughput_coeff = 0.5;
  double latency_coeff = 0.5;
  /// See CdbTuneOptions for both: non-crash rewards clamp to +-reward_clip
  /// and are scaled by reward_scale before entering replay memory.
  double reward_clip = 20.0;
  double reward_scale = 0.05;
  /// The step index that replays PolicySource::BestKnownAction() instead of
  /// querying the policy (0 disables the candidate).
  int best_known_step = 2;
  /// Guardrail layer (DESIGN.md §12). When `safety.enabled`, the session
  /// wraps its policy in a GuardedPolicySource (trust-region clipping),
  /// tracks a per-tenant performance baseline, rolls back to the
  /// last-known-good config after K consecutive regressions, and
  /// re-warm-starts on workload drift. Off by default: the paper's
  /// unguarded try-and-error loop.
  safety::GuardrailOptions safety;
};

/// One user tuning request as an explicit state machine — the unit the
/// multi-session server multiplexes, extracted from what used to be
/// CdbTuner::OnlineTune's monolithic loop (CdbTuner::OnlineTune now drives
/// one of these too, so both paths share the step semantics: greedy first
/// step, best-known-action candidate, crash penalties, best-config
/// deployment).
class TuningSession {
 public:
  /// `db`, `collector`, `policy` and `sink` must outlive the session; the
  /// session owns its knob space, reward function and result.
  TuningSession(env::DbInterface* db, knobs::KnobSpace space,
                workload::WorkloadSpec workload, MetricsCollector* collector,
                PolicySource* policy, ExperienceSink* sink,
                TuningSessionOptions options);

  /// Measures performance under the live configuration (the reward
  /// baseline). kCreated -> kTuning, or kFailed when the baseline stress
  /// test fails.
  util::Status Begin();

  /// Executes one online tuning step: propose, deploy, stress, reward,
  /// record. Automatically finishes (deploying the best configuration) when
  /// this was the last budgeted step or the stress test failed. Only legal
  /// in kTuning.
  util::StatusOr<StepRecord> Step();

  /// Deploys the best configuration found so far and freezes the session.
  /// Idempotent once finished.
  util::Status Finish();

  SessionPhase phase() const { return phase_; }
  bool done() const {
    return phase_ == SessionPhase::kFinished || phase_ == SessionPhase::kFailed;
  }
  int steps_done() const { return result_.steps; }
  const OnlineTuneResult& result() const { return result_; }
  const workload::WorkloadSpec& workload() const { return workload_; }
  const knobs::KnobSpace& space() const { return space_; }
  env::DbInterface& db() { return *db_; }
  /// The session's guardrail, or nullptr when safety is disabled.
  const safety::Guardrail* guardrail() const { return guard_.get(); }

  /// Composite objective C_T * (T/T0) + C_L * (L0/L) against this session's
  /// baseline; higher is better.
  double Score(const PerfPoint& point) const;

  /// Checkpoint round-trip (DESIGN.md §9). SaveBinary records the session's
  /// own state (options, phase, baseline, RL state vector, result/history),
  /// the database's state through its own codec (DbInterface::SaveBinary)
  /// and the guardrail's. RestoreBinary must be called on a kCreated
  /// session built over a db constructed like the saved one's, with the
  /// same options; on any mismatch or decode error it returns non-OK and
  /// the session must be discarded (it may be partially updated).
  void SaveBinary(persist::Encoder& enc) const;
  util::Status RestoreBinary(persist::Decoder& dec);

 private:
  bool Stress(env::StressResult* out);
  /// Deploys the guardrail's last-known-good config after a kRollback
  /// verdict.
  void RollbackToLastKnownGood();

  env::DbInterface* db_;  // Not owned.
  knobs::KnobSpace space_;
  workload::WorkloadSpec workload_;
  MetricsCollector* collector_;  // Not owned.
  PolicySource* policy_;         // Not owned.
  ExperienceSink* sink_;         // Not owned.
  TuningSessionOptions options_;
  Recommender recommender_;
  RewardFunction reward_;
  /// Set when options_.safety.enabled; guarded_policy_ then shadows the
  /// caller's policy behind the trust-region clamp and policy_ points at it.
  std::unique_ptr<safety::Guardrail> guard_;
  std::unique_ptr<safety::GuardedPolicySource> guarded_policy_;

  SessionPhase phase_ = SessionPhase::kCreated;
  knobs::Config base_config_;
  std::vector<double> state_;
  PerfPoint prev_perf_;
  OnlineTuneResult result_;
};

}  // namespace cdbtune::tuner

#endif  // CDBTUNE_TUNER_TUNING_SESSION_H_
