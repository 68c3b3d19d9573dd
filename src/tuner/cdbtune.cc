#include "tuner/cdbtune.h"

#include <algorithm>
#include <cmath>

#include "persist/atomic_file.h"
#include "safety/apply.h"
#include "tuner/tuning_session.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/stats.h"

namespace cdbtune::tuner {

namespace {

/// PolicySource over the tuner's own agent: exploration noise comes from
/// the agent's Ornstein-Uhlenbeck process, exactly as the pre-session
/// online loop behaved.
class AgentPolicy final : public PolicySource {
 public:
  AgentPolicy(rl::DdpgAgent* agent, const std::vector<double>* best_action)
      : agent_(agent), best_action_(best_action) {}

  std::vector<double> ProposeAction(const std::vector<double>& state,
                                    bool explore) override {
    return agent_->Act(state, explore);
  }

  std::vector<double> BestKnownAction() const override {
    return *best_action_;
  }

 private:
  rl::DdpgAgent* agent_;
  const std::vector<double>* best_action_;
};

/// ExperienceSink that fine-tunes immediately: every recorded step lands in
/// the durable memory pool and the agent's replay, followed by one gradient
/// step — online tuning keeps learning from the user's workload.
class FineTuneSink final : public ExperienceSink {
 public:
  FineTuneSink(MemoryPool* pool, rl::DdpgAgent* agent)
      : pool_(pool), agent_(agent) {}

  void Record(Experience experience) override {
    rl::Transition transition = experience.transition;
    pool_->Add(std::move(experience));
    agent_->Observe(std::move(transition));
    agent_->TrainStep();
  }

 private:
  MemoryPool* pool_;
  rl::DdpgAgent* agent_;
};

}  // namespace

util::Status ValidateBestAction(const std::vector<double>& action,
                                size_t action_dim) {
  if (action.empty() || action.size() == action_dim) return util::Status::Ok();
  return util::Status::DataLoss(
      "best offline action has " + std::to_string(action.size()) +
      " dimensions, the knob space has " + std::to_string(action_dim));
}

CdbTuner::CdbTuner(env::DbInterface* db, knobs::KnobSpace space,
                   CdbTuneOptions options)
    : db_(db),
      space_(std::move(space)),
      options_(std::move(options)),
      recommender_(&space_) {
  CDBTUNE_CHECK(db_ != nullptr);
  options_.ddpg.state_dim = env::kNumInternalMetrics;
  options_.ddpg.action_dim = space_.action_dim();
  options_.ddpg.seed = options_.seed;
  agent_ = std::make_unique<rl::DdpgAgent>(options_.ddpg);
}

void CdbTuner::SetDatabase(env::DbInterface* db) {
  CDBTUNE_CHECK(db != nullptr);
  CDBTUNE_CHECK(db->registry().size() == space_.registry().size())
      << "cross-testing requires the same knob catalog";
  db_ = db;
}

double CdbTuner::Score(const PerfPoint& initial, const PerfPoint& point) const {
  CDBTUNE_CHECK(initial.throughput > 0.0 && initial.latency > 0.0);
  return options_.throughput_coeff * (point.throughput / initial.throughput) +
         options_.latency_coeff * (initial.latency / std::max(1e-9, point.latency));
}

util::Status CdbTuner::SaveModel(const std::string& path) const {
  persist::ChunkWriter writer;
  agent_->AppendChunks(writer);
  persist::Encoder enc;
  collector_.SaveBinary(enc);
  enc.WriteDouble(best_action_score_);
  enc.WriteDoubleVec(best_offline_action_);
  writer.Add("model/meta", enc.Release());
  auto bytes = writer.Finish();
  CDBTUNE_RETURN_IF_ERROR(bytes.status());
  return persist::AtomicWriteFile(path, *bytes);
}

util::Status CdbTuner::LoadModel(const std::string& path) {
  auto bytes = persist::ReadFile(path);
  CDBTUNE_RETURN_IF_ERROR(bytes.status());
  auto parsed = persist::ChunkFile::Parse(*std::move(bytes));
  CDBTUNE_RETURN_IF_ERROR(parsed.status());
  const persist::ChunkFile& file = *parsed;
  // Decode into scratch state and swap only once all of it is valid, so a
  // corrupt or foreign file leaves this tuner exactly as it was.
  auto agent =
      std::make_unique<rl::DdpgAgent>(options_.ddpg, rl::kRestoreTarget);
  CDBTUNE_RETURN_IF_ERROR(agent->RestoreFromChunks(file));
  MetricsCollector collector;
  double best_score = 0.0;
  std::vector<double> best_action;
  CDBTUNE_RETURN_IF_ERROR(
      file.Decode("model/meta", [&](persist::Decoder& dec) {
        CDBTUNE_RETURN_IF_ERROR(collector.LoadBinary(dec));
        if (!dec.ReadDouble(&best_score) || !dec.ReadDoubleVec(&best_action)) {
          return dec.status();
        }
        return ValidateBestAction(best_action, space_.action_dim());
      }));
  agent_ = std::move(agent);
  collector_ = std::move(collector);
  best_action_score_ = best_score;
  best_offline_action_ = std::move(best_action);
  return util::Status::Ok();
}

void CdbTuner::BootstrapFromPool(const MemoryPool& pool, int gradient_steps) {
  for (size_t i = 0; i < pool.size(); ++i) {
    const Experience& e = pool.at(i);
    if (e.transition.action.size() != space_.action_dim()) continue;
    agent_->Observe(e.transition);
  }
  for (int i = 0; i < gradient_steps; ++i) agent_->TrainStep();
}

double CdbTuner::EvaluateGreedy(const workload::WorkloadSpec& workload,
                                const std::vector<double>& state,
                                const knobs::Config& base_config,
                                const PerfPoint& initial,
                                std::vector<double>* action_out) {
  std::vector<double> action = agent_->SelectAction(state, /*noise=*/nullptr);
  knobs::Config config = recommender_.BuildConfig(action, base_config);
  if (!recommender_.Deploy(*db_, config).ok()) return -1e300;
  env::StressResult stress;
  if (!Stress(workload, &stress)) return -1e300;
  if (action_out != nullptr) *action_out = std::move(action);
  return Score(initial, MetricsCollector::ToPerfPoint(stress.external));
}

bool CdbTuner::Stress(const workload::WorkloadSpec& workload,
                      env::StressResult* result) {
  auto outcome = db_->RunStress(workload, options_.stress_duration_s);
  if (!outcome.ok()) {
    CDBTUNE_LOG(Warning) << "stress test failed: "
                         << outcome.status().ToString();
    return false;
  }
  *result = std::move(outcome.value());
  return true;
}

OfflineTrainResult CdbTuner::OfflineTrain(
    const workload::WorkloadSpec& workload) {
  OfflineTrainResult out;
  RewardFunction reward(options_.reward_type, options_.throughput_coeff,
                        options_.latency_coeff);

  // Baseline: default configuration performance (D_0 in Section 4.2).
  db_->Reset();
  const knobs::Config base_config = db_->registry().DefaultConfig();
  env::StressResult stress;
  if (!Stress(workload, &stress)) return out;
  out.initial = MetricsCollector::ToPerfPoint(stress.external);
  reward.SetInitial(out.initial);
  out.best = out.initial;
  out.best_config = db_->current_config();

  std::vector<double> state = collector_.Process(stress);
  PerfPoint prev_perf = out.initial;
  int episode_step = 0;
  int calm_streak = 0;
  util::Ema score_ema(options_.convergence_ema_alpha);
  double last_score = score_ema.Add(Score(out.initial, out.initial));

  util::Rng explore_rng(options_.seed ^ 0xC0FFEE);
  for (int step = 1; step <= options_.max_offline_steps; ++step) {
    // Action source: mostly the noisy policy, with a decaying share of
    // uniform cold-start exploration and occasional refinement around the
    // best experience in the memory pool.
    double progress = static_cast<double>(step) /
                      std::max(1.0, 0.6 * options_.max_offline_steps);
    double p_random =
        options_.random_action_prob * std::max(0.0, 1.0 - progress);
    std::vector<double> action;
    if (explore_rng.Bernoulli(p_random)) {
      action.resize(space_.action_dim());
      for (double& a : action) a = explore_rng.Uniform();
    } else if (!best_offline_action_.empty() &&
               explore_rng.Bernoulli(options_.incumbent_explore_prob)) {
      action = best_offline_action_;
      for (double& a : action) {
        a = std::clamp(a + explore_rng.Gaussian(0.0, 0.05), 0.0, 1.0);
      }
    } else {
      action = agent_->Act(state, /*explore=*/true);
    }
    knobs::Config config = recommender_.BuildConfig(action, base_config);
    util::Status deploy = recommender_.Deploy(*db_, config);

    StepRecord record;
    record.step = step;
    double r;
    std::vector<double> next_state;
    bool terminal = false;

    if (!deploy.ok()) {
      // Crash (kCrashed) or rejection: large negative reward, episode ends,
      // instance restarts on its previous healthy configuration.
      ++out.crashes;
      r = reward.crash_reward();
      next_state = state;  // The restarted instance looks like before.
      terminal = true;
      record.crashed = true;
      record.throughput = 0.0;
      record.latency = 0.0;
    } else {
      if (!Stress(workload, &stress)) break;
      PerfPoint perf = MetricsCollector::ToPerfPoint(stress.external);
      r = std::clamp(reward.Compute(prev_perf, perf), -options_.reward_clip,
                     options_.reward_clip);
      next_state = collector_.Process(stress);
      record.throughput = perf.throughput;
      record.latency = perf.latency;

      double score = Score(out.initial, perf);
      if (score > Score(out.initial, out.best)) {
        out.best = perf;
        out.best_config = db_->current_config();
      }
      // Remember the best experience in the pool as an online candidate.
      if (score > best_action_score_) {
        best_action_score_ = score;
        best_offline_action_ = action;
      }
      // Convergence: |smoothed score change| below threshold for `window`
      // consecutive steps (Appendix C.1.1's 0.5% rule, applied to an EMA of
      // the trajectory because individual steps carry exploration noise).
      double smoothed = score_ema.Add(score);
      double rel_change = std::fabs(smoothed - last_score) /
                          std::max(1e-9, std::fabs(last_score));
      calm_streak = rel_change < options_.convergence_threshold
                        ? calm_streak + 1
                        : 0;
      if (calm_streak >= options_.convergence_window &&
          out.convergence_iteration < 0) {
        out.convergence_iteration = step;
      }
      last_score = smoothed;
      prev_perf = perf;
    }
    record.reward = r;
    out.history.push_back(record);
    out.iterations = step;

    rl::Transition t;
    t.state = state;
    t.action = action;
    t.reward = r * options_.reward_scale;
    t.next_state = next_state;
    t.terminal = terminal;
    Experience exp;
    exp.transition = t;
    exp.workload_name = workload.name;
    exp.instance_name = db_->hardware().name;
    exp.throughput = record.throughput;
    exp.latency = record.latency;
    pool_.Add(exp);
    agent_->Observe(std::move(t));

    for (int i = 0; i < options_.train_iters_per_step; ++i) {
      agent_->TrainStep();
    }
    agent_->DecayNoise();
    state = std::move(next_state);

    // Episode boundary: restart from the shipped defaults, like the paper's
    // per-step instance restarts during training.
    ++episode_step;
    if (terminal || episode_step >= options_.steps_per_episode) {
      episode_step = 0;
      db_->Reset();
      if (!Stress(workload, &stress)) break;
      prev_perf = MetricsCollector::ToPerfPoint(stress.external);
      state = collector_.Process(stress);

      // Best-checkpoint selection: score the greedy policy from the
      // default-config state and snapshot the weights when it improves.
      if (options_.eval_interval > 0) {
        std::vector<double> greedy_action;
        double eval = EvaluateGreedy(workload, state, base_config, out.initial,
                                     &greedy_action);
        if (eval > snapshot_score_) {
          snapshot_score_ = eval;
          if (snapshot_ == nullptr) {
            snapshot_ = std::make_unique<rl::DdpgAgent>(options_.ddpg);
          }
          snapshot_->CloneWeightsFrom(*agent_);
          if (eval > best_action_score_) {
            best_action_score_ = eval;
            best_offline_action_ = std::move(greedy_action);
          }
        }
        // Put the instance back on defaults for the new episode. The
        // shipped defaults always start, so a failure here is a bug worth
        // hearing about rather than silently tuning from the wrong state.
        util::Status reset_status = safety::ApplyConfig(*db_, base_config);
        if (!reset_status.ok()) {
          CDBTUNE_LOG(Warning) << "resetting to defaults after evaluation "
                                  "failed: "
                               << reset_status.ToString();
        }
      }
    }
  }

  // Ship the best-validated model, not the last gradient step.
  if (options_.eval_interval > 0) {
    db_->Reset();
    if (Stress(workload, &stress)) {
      std::vector<double> final_state = collector_.Process(stress);
      std::vector<double> final_action;
      double final_score = EvaluateGreedy(workload, final_state, base_config,
                                          out.initial, &final_action);
      if (final_score > snapshot_score_) {
        snapshot_score_ = final_score;
        if (final_score > best_action_score_) {
          best_action_score_ = final_score;
          best_offline_action_ = std::move(final_action);
        }
      } else if (snapshot_ != nullptr) {
        agent_->CloneWeightsFrom(*snapshot_);
      }
    }
    db_->Reset();
  }
  return out;
}

OnlineTuneResult CdbTuner::OnlineTune(const workload::WorkloadSpec& workload,
                                      int max_steps) {
  if (max_steps <= 0) max_steps = options_.online_max_steps;

  TuningSessionOptions session_options;
  session_options.max_steps = max_steps;
  session_options.stress_duration_s = options_.stress_duration_s;
  session_options.reward_type = options_.reward_type;
  session_options.throughput_coeff = options_.throughput_coeff;
  session_options.latency_coeff = options_.latency_coeff;
  session_options.reward_clip = options_.reward_clip;
  session_options.reward_scale = options_.reward_scale;
  session_options.safety = options_.safety;

  AgentPolicy policy(agent_.get(), &best_offline_action_);
  FineTuneSink sink(&pool_, agent_.get());
  TuningSession session(db_, space_, workload, &collector_, &policy, &sink,
                        session_options);
  if (!session.Begin().ok()) return session.result();
  while (session.phase() == SessionPhase::kTuning) {
    if (!session.Step().ok()) break;
  }
  return session.result();
}

}  // namespace cdbtune::tuner
