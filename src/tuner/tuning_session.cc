#include "tuner/tuning_session.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.h"
#include "util/logging.h"

namespace cdbtune::tuner {

const char* SessionPhaseName(SessionPhase phase) {
  switch (phase) {
    case SessionPhase::kCreated:
      return "CREATED";
    case SessionPhase::kTuning:
      return "TUNING";
    case SessionPhase::kFinished:
      return "FINISHED";
    case SessionPhase::kFailed:
      return "FAILED";
  }
  return "UNKNOWN";
}

TuningSession::TuningSession(env::DbInterface* db, knobs::KnobSpace space,
                             workload::WorkloadSpec workload,
                             MetricsCollector* collector, PolicySource* policy,
                             ExperienceSink* sink,
                             TuningSessionOptions options)
    : db_(db),
      space_(std::move(space)),
      workload_(std::move(workload)),
      collector_(collector),
      policy_(policy),
      sink_(sink),
      options_(std::move(options)),
      recommender_(&space_),
      reward_(options_.reward_type, options_.throughput_coeff,
              options_.latency_coeff) {
  CDBTUNE_CHECK(db_ != nullptr);
  CDBTUNE_CHECK(collector_ != nullptr);
  CDBTUNE_CHECK(policy_ != nullptr);
  CDBTUNE_CHECK(sink_ != nullptr);
  CDBTUNE_CHECK(options_.max_steps > 0) << "session needs a step budget";
  if (options_.safety.enabled) {
    guard_ = std::make_unique<safety::Guardrail>(options_.safety);
    guarded_policy_ =
        std::make_unique<safety::GuardedPolicySource>(policy_, guard_.get());
    policy_ = guarded_policy_.get();
  }
}

double TuningSession::Score(const PerfPoint& point) const {
  CDBTUNE_CHECK(result_.initial.throughput > 0.0 &&
                result_.initial.latency > 0.0);
  return options_.throughput_coeff *
             (point.throughput / result_.initial.throughput) +
         options_.latency_coeff *
             (result_.initial.latency / std::max(1e-9, point.latency));
}

bool TuningSession::Stress(env::StressResult* out) {
  auto outcome = db_->RunStress(workload_, options_.stress_duration_s);
  if (!outcome.ok()) {
    CDBTUNE_LOG(Warning) << "session stress test failed: "
                         << outcome.status().ToString();
    return false;
  }
  *out = std::move(outcome.value());
  return true;
}

util::Status TuningSession::Begin() {
  if (phase_ != SessionPhase::kCreated) {
    return util::Status::FailedPrecondition(
        "Begin() on a session already begun");
  }
  // The user's live configuration is the baseline (D_0 of Section 4.2) —
  // no reset: tuning starts from whatever they run today.
  base_config_ = db_->current_config();
  env::StressResult stress;
  if (!Stress(&stress)) {
    phase_ = SessionPhase::kFailed;
    return util::Status::Internal("baseline stress test failed");
  }
  result_.initial = MetricsCollector::ToPerfPoint(stress.external);
  reward_.SetInitial(result_.initial);
  result_.best = result_.initial;
  result_.best_config = base_config_;
  state_ = collector_->Process(stress);
  prev_perf_ = result_.initial;
  if (guard_) {
    guard_->BeginSession(base_config_, space_.ConfigToAction(base_config_),
                         result_.initial,
                         safety::WorkloadFeatures(collector_->ProcessRaw(stress)));
  }
  phase_ = SessionPhase::kTuning;
  return util::Status::Ok();
}

void TuningSession::RollbackToLastKnownGood() {
  const knobs::Config lkg = guard_->lkg_config();
  util::Status deploy = recommender_.Deploy(*db_, lkg);
  if (!deploy.ok()) {
    // The last-known-good config was healthy when it earned that title;
    // deployment is idempotent, so this should be unreachable.
    CDBTUNE_LOG(Warning) << "rollback deploy failed: " << deploy.ToString();
  }
}

util::StatusOr<StepRecord> TuningSession::Step() {
  if (phase_ != SessionPhase::kTuning) {
    return util::Status::FailedPrecondition(
        std::string("Step() in phase ") + SessionPhaseName(phase_));
  }
  const int step = result_.steps + 1;

  // Step 1 is the standard model's greedy recommendation; one step spends
  // the best configuration remembered from offline training; the rest
  // explore around the (possibly fine-tuned) policy.
  std::vector<double> action;
  if (step == options_.best_known_step) action = policy_->BestKnownAction();
  if (action.empty()) action = policy_->ProposeAction(state_, step > 1);
  CDBTUNE_CHECK_EQ(action.size(), space_.action_dim())
      << "policy action dimension mismatch";

  knobs::Config config = recommender_.BuildConfig(action, base_config_);
  util::Status deploy = recommender_.Deploy(*db_, config);

  StepRecord record;
  record.step = step;
  double r;
  std::vector<double> next_state = state_;
  bool terminal = false;

  bool stress_failed = false;
  if (!deploy.ok()) {
    // Crash (kCrashed) or rejection: large negative reward, episode ends,
    // instance restarts on its previous healthy configuration.
    r = reward_.crash_reward();
    record.crashed = true;
    terminal = true;
    if (guard_ &&
        guard_->ObserveCrash().action == safety::GuardAction::kRollback) {
      record.rolled_back = true;
      RollbackToLastKnownGood();
    }
  } else {
    env::StressResult stress;
    if (!Stress(&stress)) {
      stress_failed = true;
      r = 0.0;
    } else {
      PerfPoint perf = MetricsCollector::ToPerfPoint(stress.external);
      r = std::clamp(reward_.Compute(prev_perf_, perf), -options_.reward_clip,
                     options_.reward_clip);
      next_state = collector_->Process(stress);
      record.throughput = perf.throughput;
      record.latency = perf.latency;
      if (Score(perf) > Score(result_.best)) {
        result_.best = perf;
        result_.best_config = db_->current_config();
      }
      prev_perf_ = perf;
      if (guard_) {
        const safety::StepVerdict verdict = guard_->ObserveStep(
            db_->current_config(), action, perf,
            safety::WorkloadFeatures(collector_->ProcessRaw(stress)));
        if (verdict.action == safety::GuardAction::kRollback) {
          // Quarantine: the violating transition stays in the replay pool
          // with its negative reward, marked terminal so it never
          // bootstraps past the rollback.
          terminal = true;
          record.rolled_back = true;
          RollbackToLastKnownGood();
        } else if (verdict.action == safety::GuardAction::kRewarm) {
          record.rewarmed = true;
          CDBTUNE_LOG(Warning)
              << "workload drift detected at step " << step
              << "; guardrail re-warm-started (baseline + trust region)";
        }
      }
    }
  }

  if (stress_failed) {
    // Keep what the session learned so far and deploy the best seen —
    // mirrors the old loop's break-then-deploy behavior.
    CDBTUNE_CHECK_OK(Finish());
    return util::Status::Internal("stress test failed mid-session");
  }

  record.reward = r;
  result_.history.push_back(record);
  result_.steps = step;

  rl::Transition t;
  t.state = state_;
  t.action = std::move(action);
  t.reward = r * options_.reward_scale;
  t.next_state = next_state;
  t.terminal = terminal;
  Experience exp;
  exp.transition = std::move(t);
  exp.workload_name = workload_.name;
  exp.instance_name = db_->hardware().name;
  exp.from_user_request = true;
  exp.throughput = record.throughput;
  exp.latency = record.latency;
  sink_->Record(std::move(exp));

  state_ = std::move(next_state);
  if (step >= options_.max_steps) CDBTUNE_CHECK_OK(Finish());
  return record;
}

namespace {

void SavePerfPointBinary(persist::Encoder& enc, const PerfPoint& p) {
  enc.WriteDouble(p.throughput);
  enc.WriteDouble(p.latency);
}

bool LoadPerfPointBinary(persist::Decoder& dec, PerfPoint* out) {
  return dec.ReadDouble(&out->throughput) && dec.ReadDouble(&out->latency);
}

}  // namespace

void TuningSession::SaveBinary(persist::Encoder& enc) const {
  // Option fields first so a restore into a differently-configured session
  // fails loudly instead of replaying a reward curve it cannot reproduce.
  enc.WriteI64(options_.max_steps);
  enc.WriteDouble(options_.stress_duration_s);
  enc.WriteU8(static_cast<uint8_t>(options_.reward_type));
  enc.WriteDouble(options_.throughput_coeff);
  enc.WriteDouble(options_.latency_coeff);
  enc.WriteDouble(options_.reward_clip);
  enc.WriteDouble(options_.reward_scale);
  enc.WriteI64(options_.best_known_step);

  enc.WriteU8(static_cast<uint8_t>(phase_));
  enc.WriteDoubleVec(base_config_);
  enc.WriteDoubleVec(state_);
  SavePerfPointBinary(enc, prev_perf_);

  SavePerfPointBinary(enc, result_.initial);
  SavePerfPointBinary(enc, result_.best);
  enc.WriteDoubleVec(result_.best_config);
  enc.WriteI64(result_.steps);
  enc.WriteU64(result_.history.size());
  for (const StepRecord& r : result_.history) {
    enc.WriteI64(r.step);
    enc.WriteDouble(r.throughput);
    enc.WriteDouble(r.latency);
    enc.WriteDouble(r.reward);
    enc.WriteBool(r.crashed);
    enc.WriteBool(r.rolled_back);
    enc.WriteBool(r.rewarmed);
  }

  db_->SaveBinary(enc);

  enc.WriteBool(guard_ != nullptr);
  if (guard_) guard_->SaveBinary(enc);
}

util::Status TuningSession::RestoreBinary(persist::Decoder& dec) {
  if (phase_ != SessionPhase::kCreated) {
    return util::Status::FailedPrecondition(
        "RestoreBinary() needs a freshly created session");
  }

  int64_t max_steps = 0, best_known_step = 0;
  double stress_s = 0, t_coeff = 0, l_coeff = 0, clip = 0, scale = 0;
  uint8_t reward_type = 0;
  if (!dec.ReadI64(&max_steps) || !dec.ReadDouble(&stress_s) ||
      !dec.ReadU8(&reward_type) || !dec.ReadDouble(&t_coeff) ||
      !dec.ReadDouble(&l_coeff) || !dec.ReadDouble(&clip) ||
      !dec.ReadDouble(&scale) || !dec.ReadI64(&best_known_step)) {
    return dec.status();
  }
  if (max_steps != options_.max_steps ||
      stress_s != options_.stress_duration_s ||
      reward_type != static_cast<uint8_t>(options_.reward_type) ||
      t_coeff != options_.throughput_coeff ||
      l_coeff != options_.latency_coeff || clip != options_.reward_clip ||
      scale != options_.reward_scale ||
      best_known_step != options_.best_known_step) {
    return util::Status::DataLoss(
        "session checkpoint was written with different tuning options");
  }

  uint8_t phase = 0;
  knobs::Config base_config;
  std::vector<double> state;
  PerfPoint prev_perf;
  OnlineTuneResult result;
  if (!dec.ReadU8(&phase) || !dec.ReadDoubleVec(&base_config) ||
      !dec.ReadDoubleVec(&state) || !LoadPerfPointBinary(dec, &prev_perf) ||
      !LoadPerfPointBinary(dec, &result.initial) ||
      !LoadPerfPointBinary(dec, &result.best) ||
      !dec.ReadDoubleVec(&result.best_config)) {
    return dec.status();
  }
  if (phase > static_cast<uint8_t>(SessionPhase::kFailed)) {
    return util::Status::DataLoss("session checkpoint has an unknown phase");
  }
  int64_t steps = 0;
  uint64_t history_size = 0;
  if (!dec.ReadI64(&steps) || !dec.ReadU64(&history_size)) {
    return dec.status();
  }
  if (steps < 0 || steps > options_.max_steps) {
    return util::Status::DataLoss("session step count is out of range");
  }
  result.steps = static_cast<int>(steps);
  if (history_size > dec.remaining()) {
    return util::Status::DataLoss("session history count is implausible");
  }
  result.history.resize(history_size);
  for (StepRecord& r : result.history) {
    int64_t step = 0;
    if (!dec.ReadI64(&step) || !dec.ReadDouble(&r.throughput) ||
        !dec.ReadDouble(&r.latency) || !dec.ReadDouble(&r.reward) ||
        !dec.ReadBool(&r.crashed) || !dec.ReadBool(&r.rolled_back) ||
        !dec.ReadBool(&r.rewarmed)) {
      return dec.status();
    }
    r.step = static_cast<int>(step);
  }

  CDBTUNE_RETURN_IF_ERROR(db_->RestoreBinary(dec));

  bool has_guard = false;
  if (!dec.ReadBool(&has_guard)) return dec.status();
  if (has_guard != (guard_ != nullptr)) {
    return util::Status::DataLoss(
        "session checkpoint disagrees about guardrail presence");
  }
  if (guard_) {
    util::Status guard_status = guard_->RestoreBinary(dec);
    if (!guard_status.ok()) return guard_status;
  }

  phase_ = static_cast<SessionPhase>(phase);
  base_config_ = std::move(base_config);
  state_ = std::move(state);
  prev_perf_ = prev_perf;
  result_ = std::move(result);
  if (phase_ != SessionPhase::kCreated && phase_ != SessionPhase::kFailed) {
    reward_.SetInitial(result_.initial);
  }
  return util::Status::Ok();
}

util::Status TuningSession::Finish() {
  if (phase_ == SessionPhase::kFinished) return util::Status::Ok();
  if (phase_ != SessionPhase::kTuning) {
    return util::Status::FailedPrecondition(
        std::string("Finish() in phase ") + SessionPhaseName(phase_));
  }
  // Deploy the knobs "corresponding to the best performance in online
  // tuning" (Section 2.1.2).
  util::Status final_deploy = recommender_.Deploy(*db_, result_.best_config);
  if (!final_deploy.ok()) {
    CDBTUNE_LOG(Warning) << "re-deploying best config failed: "
                         << final_deploy.ToString();
  }
  phase_ = SessionPhase::kFinished;
  return util::Status::Ok();
}

}  // namespace cdbtune::tuner
