#ifndef CDBTUNE_TUNER_CDBTUNE_H_
#define CDBTUNE_TUNER_CDBTUNE_H_

#include <memory>
#include <string>
#include <vector>

#include "env/db_interface.h"
#include "knobs/registry.h"
#include "rl/ddpg.h"
#include "tuner/memory_pool.h"
#include "tuner/metrics_collector.h"
#include "tuner/recommender.h"
#include "tuner/reward.h"
#include "tuner/tuning_session.h"
#include "workload/workload.h"

namespace cdbtune::tuner {

/// End-to-end tuner configuration. Defaults reproduce the paper's setup:
/// RF-CDBTune with C_T = C_L = 0.5, ~150 s stress tests, 5-step online
/// tuning, DDPG per Tables 4-5 with prioritized experience replay.
struct CdbTuneOptions {
  rl::DdpgOptions ddpg;  // state_dim/action_dim are overwritten internally.

  RewardFunctionType reward_type = RewardFunctionType::kCdbTune;
  double throughput_coeff = 0.5;
  double latency_coeff = 0.5;

  /// Seconds of stress testing per tuning step (Section 5.1.1: ~153 s).
  double stress_duration_s = 150.0;

  /// Offline training budget and episode shape.
  int max_offline_steps = 1000;
  int steps_per_episode = 25;
  int train_iters_per_step = 2;

  /// Cold-start exploration: with this probability (decaying linearly to 0
  /// by 60% of the budget) a step draws a uniform-random action instead of
  /// the policy's. Matches the paper's cold-start phase, where standard-
  /// workload try-and-error seeds the replay memory with diverse samples.
  double random_action_prob = 0.25;

  /// Incumbent refinement: with this probability a step perturbs the best
  /// action found so far (sigma 0.05) instead of following the policy —
  /// exploitation of the memory pool's best experience.
  double incumbent_explore_prob = 0.15;

  /// Convergence rule of Appendix C.1.1: performance change below
  /// `convergence_threshold` for `convergence_window` consecutive steps.
  double convergence_threshold = 0.005;
  int convergence_window = 5;

  /// Online tuning step budget (Section 2.1.2: maximum of 5).
  int online_max_steps = 5;

  /// Non-crash rewards are clamped to [-reward_clip, +reward_clip]: Eq. (6)
  /// is quadratic in the relative change, and a degenerate configuration
  /// (latency blowing up 50x) would otherwise dwarf every other sample in
  /// the critic's replay. Crashes keep their fixed -100.
  double reward_clip = 20.0;

  /// Smoothing factor of the EMA used for convergence detection; the raw
  /// trajectory is noisy while exploration noise is high.
  double convergence_ema_alpha = 0.25;

  /// Every `eval_interval` offline steps the greedy policy (no exploration
  /// noise) is evaluated from the default-config state; the best-scoring
  /// network weights are checkpointed and restored at the end of training.
  /// This is standard best-checkpoint selection — the deployed "standard
  /// model" is the best-validated one, not whatever the last gradient step
  /// produced. 0 disables.
  int eval_interval = 10;

  /// Multiplier applied to rewards before they enter the replay memory.
  /// The semantics of Section 4.2 (crash = -100, Eq. 6 elsewhere) are kept
  /// in the reported history; the network simply sees a better-conditioned
  /// scale, which keeps the critic's value range (|Q| <= r/(1-gamma))
  /// inside what its Tanh trunk can express.
  double reward_scale = 0.05;

  /// Guardrail layer for OnlineTune (DESIGN.md §12): trust-region clipping,
  /// baseline regression tracking, rollback-on-regression, drift rewarm.
  /// Off by default (the paper's unguarded loop); offline training is never
  /// guarded — it must explore crashing regions to learn them.
  safety::GuardrailOptions safety;

  uint64_t seed = 17;
};

/// kDataLoss unless a persisted best offline action is empty or has one
/// entry per knob; any other length would abort the session deploying it.
util::Status ValidateBestAction(const std::vector<double>& action,
                                size_t action_dim);

/// Output of offline (cold-start) training.
struct OfflineTrainResult {
  /// Environment steps executed.
  int iterations = 0;
  /// First step satisfying the convergence rule (-1 if never satisfied).
  int convergence_iteration = -1;
  PerfPoint initial;
  PerfPoint best;
  knobs::Config best_config;
  int crashes = 0;
  std::vector<StepRecord> history;
};

/// The CDBTune system: DDPG agent + reward function + metrics collector +
/// recommender + memory pool wired into the offline-training /
/// online-tuning lifecycle of Section 2.1.
///
/// Typical use:
///   CdbTuner tuner(&db, knobs::KnobSpace::AllTunable(&db.registry()), {});
///   tuner.OfflineTrain(workload::SysbenchReadWrite());   // once
///   auto result = tuner.OnlineTune(user_workload);       // per request
///   db.ApplyConfig(result.best_config);
///
/// Cross-environment adaptability (Figures 10-12) is exercised by calling
/// SetDatabase() with a different instance between training and tuning.
class CdbTuner {
 public:
  CdbTuner(env::DbInterface* db, knobs::KnobSpace space, CdbTuneOptions options);

  /// Cold-start training against the bound database using generated
  /// standard workloads (Section 2.1.1). May be called repeatedly; the
  /// agent and memory pool accumulate.
  OfflineTrainResult OfflineTrain(const workload::WorkloadSpec& workload);

  /// Handles one tuning request: replays/stress-tests the user workload,
  /// fine-tunes the pre-trained model for at most `max_steps` steps
  /// (default: options.online_max_steps) and deploys the best configuration
  /// found (Section 2.1.2).
  OnlineTuneResult OnlineTune(const workload::WorkloadSpec& workload,
                              int max_steps = -1);

  /// Rebinds the tuner to another instance (e.g., the cross-testing setups
  /// M_8G -> 32G). The learned networks, normalization statistics and
  /// memory pool are kept — that is the point of the experiment.
  void SetDatabase(env::DbInterface* db);

  rl::DdpgAgent& agent() { return *agent_; }
  MemoryPool& memory_pool() { return pool_; }
  MetricsCollector& collector() { return collector_; }
  const knobs::KnobSpace& space() const { return space_; }
  const CdbTuneOptions& options() const { return options_; }

  /// Composite objective used to pick the "best performance" configuration:
  /// C_T * (T/T0) + C_L * (L0/L), higher is better.
  double Score(const PerfPoint& initial, const PerfPoint& point) const;

  /// Normalized action of the best configuration seen during offline
  /// training; OnlineTune tries it as one of its five candidates.
  const std::vector<double>& best_offline_action() const {
    return best_offline_action_;
  }

  /// Persists the trained standard model for the paper's train-once /
  /// tune-many deployment: one checkpoint container (DESIGN.md §9) written
  /// atomically to `path`, holding the complete agent under `agent/` plus a
  /// `model/meta` chunk (normalization statistics, best-experience score
  /// and action).
  util::Status SaveModel(const std::string& path) const;

  /// Restores a model saved with SaveModel into a tuner built with the same
  /// knob space and network options (any seed: the file's streams are
  /// adopted). All or nothing: on any error the tuner is unchanged.
  util::Status LoadModel(const std::string& path);

  /// Warm-starts the agent's replay memory from an accumulated experience
  /// pool (Section 2.1.1, Incremental Training), then runs
  /// `gradient_steps` optimization steps over it.
  void BootstrapFromPool(const MemoryPool& pool, int gradient_steps);

 private:
  /// Runs one stress test and converts outputs; returns false on failure.
  bool Stress(const workload::WorkloadSpec& workload, env::StressResult* result);

  /// Deploys the greedy policy's recommendation (given `state`) and returns
  /// its score, or a large negative value on crash/failure.
  double EvaluateGreedy(const workload::WorkloadSpec& workload,
                        const std::vector<double>& state,
                        const knobs::Config& base_config,
                        const PerfPoint& initial,
                        std::vector<double>* action_out);

  env::DbInterface* db_;  // Not owned.
  knobs::KnobSpace space_;
  CdbTuneOptions options_;
  Recommender recommender_;
  MetricsCollector collector_;
  MemoryPool pool_;
  std::unique_ptr<rl::DdpgAgent> agent_;
  /// Best-checkpoint storage (same architecture as agent_).
  std::unique_ptr<rl::DdpgAgent> snapshot_;
  double snapshot_score_ = -1e300;
  /// Score of the best experience stored in best_offline_action_.
  double best_action_score_ = -1e300;
  std::vector<double> best_offline_action_;
};

}  // namespace cdbtune::tuner

#endif  // CDBTUNE_TUNER_CDBTUNE_H_
