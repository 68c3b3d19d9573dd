#include "server/tuning_server.h"

#include <climits>
#include <cmath>
#include <functional>
#include <initializer_list>
#include <utility>

#include "engine/mini_cdb.h"
#include "env/simulated_cdb.h"
#include "knobs/knob.h"
#include "persist/chunk.h"
#include "server/protocol.h"
#include "tuner/recommender.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace cdbtune::server {

namespace {

/// Salt for a session's exploration stream — deliberately the same
/// derivation DdpgAgent applies to its own seed, so a session with
/// SessionSpec::seed == S explores exactly like a fresh solo tuner
/// constructed with seed S: given a frozen model, the multiplexed session
/// and the classic single-tenant loop produce bitwise-equal trajectories.
constexpr uint64_t kNoiseSeedSalt = 0x9E3779B97F4A7C15ULL;

void SaveWorkloadSpecBinary(persist::Encoder& enc,
                            const workload::WorkloadSpec& w) {
  enc.WriteU8(static_cast<uint8_t>(w.type));
  enc.WriteString(w.name);
  enc.WriteDouble(w.read_fraction);
  enc.WriteDouble(w.scan_fraction);
  enc.WriteDouble(w.scan_length);
  enc.WriteDouble(w.insert_fraction);
  enc.WriteDouble(w.data_size_gb);
  enc.WriteDouble(w.working_set_gb);
  enc.WriteDouble(w.access_skew);
  enc.WriteI64(w.client_threads);
  enc.WriteDouble(w.ops_per_txn);
  enc.WriteDouble(w.sort_heavy_fraction);
}

util::Status LoadWorkloadSpecBinary(persist::Decoder& dec,
                                    workload::WorkloadSpec* out) {
  uint8_t type = 0;
  int64_t client_threads = 0;
  workload::WorkloadSpec w;
  if (!dec.ReadU8(&type) || !dec.ReadString(&w.name) ||
      !dec.ReadDouble(&w.read_fraction) || !dec.ReadDouble(&w.scan_fraction) ||
      !dec.ReadDouble(&w.scan_length) || !dec.ReadDouble(&w.insert_fraction) ||
      !dec.ReadDouble(&w.data_size_gb) || !dec.ReadDouble(&w.working_set_gb) ||
      !dec.ReadDouble(&w.access_skew) || !dec.ReadI64(&client_threads) ||
      !dec.ReadDouble(&w.ops_per_txn) ||
      !dec.ReadDouble(&w.sort_heavy_fraction)) {
    return dec.status();
  }
  if (type > static_cast<uint8_t>(workload::WorkloadType::kReplay)) {
    return util::Status::DataLoss("unknown workload type in checkpoint");
  }
  if (!std::in_range<int>(client_threads)) {
    return util::Status::DataLoss(
        "checkpoint workload thread count overflows int");
  }
  w.type = static_cast<workload::WorkloadType>(type);
  w.client_threads = static_cast<int>(client_threads);
  *out = std::move(w);
  return util::Status::Ok();
}

void SaveHardwareSpecBinary(persist::Encoder& enc, const env::HardwareSpec& h) {
  enc.WriteString(h.name);
  enc.WriteDouble(h.ram_gb);
  enc.WriteDouble(h.disk_gb);
  enc.WriteI64(h.cpu_cores);
  enc.WriteU8(static_cast<uint8_t>(h.disk_type));
}

util::Status LoadHardwareSpecBinary(persist::Decoder& dec,
                                    env::HardwareSpec* out) {
  uint8_t disk_type = 0;
  int64_t cores = 0;
  env::HardwareSpec h;
  if (!dec.ReadString(&h.name) || !dec.ReadDouble(&h.ram_gb) ||
      !dec.ReadDouble(&h.disk_gb) || !dec.ReadI64(&cores) ||
      !dec.ReadU8(&disk_type)) {
    return dec.status();
  }
  if (disk_type > static_cast<uint8_t>(env::DiskType::kNvm)) {
    return util::Status::DataLoss("unknown disk type in checkpoint");
  }
  if (!std::in_range<int>(cores)) {
    return util::Status::DataLoss("checkpoint core count overflows int");
  }
  h.cpu_cores = static_cast<int>(cores);
  h.disk_type = static_cast<env::DiskType>(disk_type);
  *out = std::move(h);
  return util::Status::Ok();
}

void SaveSessionSpecBinary(persist::Encoder& enc, const SessionSpec& s) {
  enc.WriteString(s.engine);
  SaveWorkloadSpecBinary(enc, s.workload);
  SaveHardwareSpecBinary(enc, s.hardware);
  enc.WriteU64(s.seed);
  enc.WriteI64(s.max_steps);
  enc.WriteU64(s.mini_table_rows);
  enc.WriteDouble(s.stress_duration_s);
  enc.WriteI64(s.safety);
  enc.WriteString(s.degrade_knob);
  enc.WriteU64(s.degrade_after);
  enc.WriteDouble(s.degrade_severity);
}

util::Status LoadSessionSpecBinary(persist::Decoder& dec, SessionSpec* out) {
  SessionSpec s;
  if (!dec.ReadString(&s.engine)) return dec.status();
  CDBTUNE_RETURN_IF_ERROR(LoadWorkloadSpecBinary(dec, &s.workload));
  CDBTUNE_RETURN_IF_ERROR(LoadHardwareSpecBinary(dec, &s.hardware));
  int64_t max_steps = 0, safety = -1;
  if (!dec.ReadU64(&s.seed) || !dec.ReadI64(&max_steps) ||
      !dec.ReadU64(&s.mini_table_rows) ||
      !dec.ReadDouble(&s.stress_duration_s) || !dec.ReadI64(&safety) ||
      !dec.ReadString(&s.degrade_knob) || !dec.ReadU64(&s.degrade_after) ||
      !dec.ReadDouble(&s.degrade_severity)) {
    return dec.status();
  }
  if (!std::in_range<int>(max_steps)) {
    return util::Status::DataLoss(
        "checkpoint session step budget overflows int");
  }
  if (safety < -1 || safety > 1) {
    return util::Status::DataLoss("checkpoint session safety flag is invalid");
  }
  s.max_steps = static_cast<int>(max_steps);
  s.safety = static_cast<int>(safety);
  *out = std::move(s);
  return util::Status::Ok();
}

/// Session options derived from the server defaults + the tenant's spec.
tuner::TuningSessionOptions SessionOptionsFor(
    const TuningServerOptions& server_options, const SessionSpec& spec) {
  tuner::TuningSessionOptions session_options;
  session_options.max_steps = spec.max_steps;
  session_options.stress_duration_s = spec.stress_duration_s >= 0.0
                                          ? spec.stress_duration_s
                                          : server_options.stress_duration_s;
  session_options.safety = server_options.safety;
  if (spec.safety == 0) session_options.safety.enabled = false;
  if (spec.safety == 1) session_options.safety.enabled = true;
  return session_options;
}

engine::MiniCdbOptions MiniOptionsFor(const SessionSpec& spec) {
  engine::MiniCdbOptions options;
  options.table_rows = spec.mini_table_rows;
  options.seed = spec.seed;
  return options;
}

}  // namespace

util::Status SessionSpec::Validate() const {
  // 24x the paper's ~150 s stress test.
  constexpr double kMaxStressS = 3600.0;
  constexpr double kMaxMiniBytes = 256.0 * 1024 * 1024;
  if (max_steps < 1) {
    return util::Status::InvalidArgument("steps must be >= 1");
  }
  if (!std::isfinite(stress_duration_s) || stress_duration_s == 0.0 ||
      stress_duration_s > kMaxStressS) {
    return util::Status::InvalidArgument(
        "stress_s must be finite and < 0 (server default) or in (0, 3600]");
  }
  if (!(std::isfinite(hardware.ram_gb) && hardware.ram_gb > 0.0 &&
        std::isfinite(hardware.disk_gb) && hardware.disk_gb > 0.0 &&
        hardware.cpu_cores >= 1)) {
    return util::Status::InvalidArgument(
        "ram_gb and disk_gb must be finite and > 0, cpu_cores >= 1");
  }
  if (engine == "mini" &&
      engine::MiniCdb::ScaleFor(MiniOptionsFor(*this)) *
              (hardware.ram_bytes() + hardware.disk_bytes()) >
          kMaxMiniBytes) {
    return util::Status::InvalidArgument(
        "a mini instance of this many rows, ram_gb and disk_gb needs over "
        "256 MiB of scaled buffer frames and pages");
  }
  if (!(degrade_severity >= 0.0 && degrade_severity < 1.0)) {
    return util::Status::InvalidArgument("degrade_sev must be in [0, 1)");
  }
  const workload::WorkloadSpec& w = workload;
  for (double fraction : {w.read_fraction, w.scan_fraction, w.insert_fraction,
                          w.sort_heavy_fraction}) {
    if (!(fraction >= 0.0 && fraction <= 1.0)) {
      return util::Status::InvalidArgument(
          "workload fractions must be in [0, 1]");
    }
  }
  for (double value : {w.scan_length, w.data_size_gb, w.working_set_gb,
                       w.access_skew, w.ops_per_txn}) {
    if (!std::isfinite(value)) {
      return util::Status::InvalidArgument("workload numbers must be finite");
    }
  }
  if (w.client_threads < 1) {
    return util::Status::InvalidArgument(
        "workload client_threads must be >= 1");
  }
  return util::Status::Ok();
}

/// The per-tenant world: environment, exploration stream, experience shard.
/// While a step is in flight exactly one thread owns the whole object (the
/// Slot's busy flag / round exclusivity enforce that under mu_), so none of
/// these members need a lock of their own.
struct TuningServer::Session {
  Session(TuningServer* server, SessionSpec spec_in, size_t shard_in,
          std::unique_ptr<env::DbInterface> db_in,
          tuner::MetricsCollector collector_in, const rl::DdpgOptions& model)
      : spec(std::move(spec_in)),
        shard(shard_in),
        db(std::move(db_in)),
        collector(std::move(collector_in)),
        noise(model.action_dim, model.noise_theta, model.noise_sigma,
              util::Rng(spec.seed ^ kNoiseSeedSalt)),
        policy(server, &noise),
        sink(&server->shards_, shard) {}

  /// Assigned when the session registers; never changes afterwards.
  int id = -1;
  const SessionSpec spec;
  const size_t shard;
  std::unique_ptr<env::DbInterface> db;
  tuner::MetricsCollector collector;
  rl::OrnsteinUhlenbeckNoise noise;
  ServerPolicy policy;
  ShardSink sink;
  std::unique_ptr<tuner::TuningSession> tuning;
};

std::vector<double> TuningServer::ServerPolicy::ProposeAction(
    const std::vector<double>& state, bool explore) {
  util::ReaderMutexLock lock(server_->model_mu_);
  return server_->agent_->SelectAction(state, explore ? noise_ : nullptr);
}

std::vector<double> TuningServer::ServerPolicy::BestKnownAction() const {
  util::ReaderMutexLock lock(server_->model_mu_);
  return server_->best_offline_action_;
}

TuningServer::TuningServer(TuningServerOptions options)
    : options_(options),
      shards_(options.max_sessions, options.shard_capacity),
      model_mu_(util::lock_rank::kServerAgent, "TuningServer::model_mu_") {
  CDBTUNE_CHECK(options_.max_sessions > 0) << "server needs session slots";
  // Highest index on top so pop_back hands out shard 0 first: session ids
  // and shard indices stay aligned in the common open-in-order case.
  free_shards_.reserve(options_.max_sessions);
  for (size_t i = options_.max_sessions; i > 0; --i) {
    free_shards_.push_back(i - 1);
  }
}

TuningServer::~TuningServer() { DrainAndStop(); }

util::Status TuningServer::AdoptModel(tuner::CdbTuner& trained) {
  util::WriterMutexLock lock(model_mu_);
  if (agent_ != nullptr) {
    return util::Status::FailedPrecondition("model already adopted");
  }
  agent_ = std::make_unique<rl::DdpgAgent>(trained.agent().options());
  agent_->CloneWeightsFrom(trained.agent());
  collector_template_ = trained.collector();
  best_offline_action_ = trained.best_offline_action();
  return util::Status::Ok();
}

bool TuningServer::model_ready() const {
  util::ReaderMutexLock lock(model_mu_);
  return agent_ != nullptr;
}

util::StatusOr<std::unique_ptr<env::DbInterface>> TuningServer::MakeDb(
    const SessionSpec& spec) {
  const bool degrade =
      !spec.degrade_knob.empty() && spec.degrade_severity > 0.0;
  if (spec.engine == "sim") {
    auto db = env::SimulatedCdb::MysqlCdb(spec.hardware, spec.seed);
    if (degrade) {
      env::SimulatedCdb::DegradeSpec degrade_spec;
      degrade_spec.knob = spec.degrade_knob;
      degrade_spec.after_stress_calls = spec.degrade_after;
      degrade_spec.severity = spec.degrade_severity;
      CDBTUNE_RETURN_IF_ERROR(db->SetDegrade(degrade_spec));
    }
    return std::unique_ptr<env::DbInterface>(std::move(db));
  }
  if (degrade) {
    return util::Status::InvalidArgument(
        "degrade injection is only supported by engine=sim");
  }
  if (spec.engine == "mini") {
    return std::unique_ptr<env::DbInterface>(
        std::make_unique<engine::MiniCdb>(spec.hardware, MiniOptionsFor(spec)));
  }
  return util::Status::InvalidArgument("unknown engine '" + spec.engine +
                                       "' (want sim|mini)");
}

void TuningServer::RefreshStatus(Slot* slot) {
  const Session& session = *slot->session;
  const tuner::OnlineTuneResult& result = session.tuning->result();
  SessionStatus& status = slot->status;
  status.id = session.id;
  status.phase = session.tuning->phase();
  status.engine = session.spec.engine;
  status.workload = session.spec.workload.name;
  status.steps_done = result.steps;
  status.initial_throughput = result.initial.throughput;
  status.initial_latency = result.initial.latency;
  status.best_throughput = result.best.throughput;
  status.best_latency = result.best.latency;
  status.last_reward = result.history.empty() ? 0.0 : result.history.back().reward;
  status.busy = slot->busy;
  const safety::Guardrail* guard = session.tuning->guardrail();
  status.safety_enabled = guard != nullptr;
  if (guard != nullptr) {
    status.baseline_throughput = guard->baseline().throughput();
    status.baseline_latency = guard->baseline().latency();
    status.trust_width = guard->trust_width();
    status.violations = guard->violations();
    status.rollbacks = guard->rollbacks();
    status.rewarms = guard->rewarms();
    status.on_last_known_good =
        guard->began() && session.db->current_config() == guard->lkg_config();
  }
}

util::StatusOr<std::unique_ptr<TuningServer::Session>>
TuningServer::ProvisionSession(const SessionSpec& spec, size_t shard,
                               tuner::MetricsCollector collector,
                               const rl::DdpgOptions& model) {
  CDBTUNE_RETURN_IF_ERROR(spec.Validate());
  auto db = MakeDb(spec);
  CDBTUNE_RETURN_IF_ERROR(db.status());
  knobs::KnobSpace space = knobs::KnobSpace::AllTunable(&(*db)->registry());
  if (space.action_dim() != model.action_dim) {
    return util::Status::InvalidArgument(
        "engine knob space does not match the model's action space");
  }
  auto session = std::make_unique<Session>(this, spec, shard, std::move(*db),
                                           std::move(collector), model);
  session->tuning = std::make_unique<tuner::TuningSession>(
      session->db.get(), std::move(space), session->spec.workload,
      &session->collector, &session->policy, &session->sink,
      SessionOptionsFor(options_, spec));
  return session;
}

util::StatusOr<int> TuningServer::Open(const SessionSpec& spec) {
  rl::DdpgOptions model;
  tuner::MetricsCollector collector;
  {
    util::ReaderMutexLock lock(model_mu_);
    if (agent_ == nullptr) {
      return util::Status::FailedPrecondition(
          "no model adopted; call AdoptModel first");
    }
    model = agent_->options();
    collector = collector_template_;
  }

  size_t shard;
  {
    util::MutexLock lock(mu_);
    if (draining_) {
      return util::Status::FailedPrecondition("server is draining");
    }
    if (free_shards_.empty()) {
      return util::Status::FailedPrecondition(
          "server at capacity (" + std::to_string(options_.max_sessions) +
          " sessions)");
    }
    shard = free_shards_.back();
    free_shards_.pop_back();
  }
  // Instance provisioning and the baseline stress test run outside every
  // lock — a mini-engine bulk load or a 150 s baseline must not stall the
  // other tenants.
  auto release_shard = [&] {
    util::MutexLock lock(mu_);
    free_shards_.push_back(shard);
  };

  auto provisioned =
      ProvisionSession(spec, shard, std::move(collector), model);
  if (!provisioned.ok()) {
    release_shard();
    return provisioned.status();
  }
  std::unique_ptr<Session> session = std::move(provisioned).value();

  util::Status begun = session->tuning->Begin();
  if (!begun.ok()) {
    release_shard();
    return begun;
  }

  // The id is taken only now, so a refused OPEN consumes none; ids are
  // never reused, and every live id stays below next_id_.
  util::MutexLock lock(mu_);
  if (draining_ || next_id_ == INT_MAX) {
    free_shards_.push_back(shard);
    return util::Status::FailedPrecondition(
        draining_ ? "server is draining" : "session ids are exhausted");
  }
  const int id = next_id_++;
  session->id = id;
  Slot slot;
  slot.session = std::move(session);
  // Snapshot under mu_ like every other refresh — RefreshStatus's contract
  // is REQUIRES(mu_), and taking it here (previously the snapshot ran
  // unlocked) costs nothing since registration takes the lock anyway.
  RefreshStatus(&slot);
  CDBTUNE_CHECK(sessions_.emplace(id, std::move(slot)).second)
      << "session id " << id << " is taken";
  return id;
}

util::StatusOr<TuningServer::Session*> TuningServer::BeginStep(int id) {
  util::MutexLock lock(mu_);
  while (exclusive_) cv_.Wait(mu_);
  if (draining_) {
    return util::Status::FailedPrecondition("server is draining");
  }
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return util::Status::NotFound("no session " + std::to_string(id));
  }
  Slot& slot = it->second;
  if (slot.busy) {
    return util::Status::FailedPrecondition(
        "session " + std::to_string(id) + " is busy");
  }
  if (slot.session->tuning->phase() != tuner::SessionPhase::kTuning) {
    return util::Status::FailedPrecondition(
        "session " + std::to_string(id) + " is in phase " +
        tuner::SessionPhaseName(slot.session->tuning->phase()));
  }
  slot.busy = true;
  slot.status.busy = true;
  ++in_flight_;
  return slot.session.get();
}

void TuningServer::EndStep(int id) {
  util::MutexLock lock(mu_);
  auto it = sessions_.find(id);
  // The busy flag pins the slot: Close/DrainAndStop refuse busy sessions,
  // so the entry BeginStep marked must still be here.
  CDBTUNE_CHECK(it != sessions_.end()) << "EndStep for vanished session " << id;
  it->second.busy = false;
  RefreshStatus(&it->second);
  --in_flight_;
  cv_.NotifyAll();
}

util::StatusOr<tuner::StepRecord> TuningServer::Step(int id) {
  auto session = BeginStep(id);
  if (!session.ok()) return session.status();
  util::StatusOr<tuner::StepRecord> record = (*session)->tuning->Step();
  EndStep(id);
  return record;
}

void TuningServer::BeginExclusive() {
  while (exclusive_ || in_flight_ != 0) cv_.Wait(mu_);
  exclusive_ = true;
}

void TuningServer::EndExclusive() {
  util::MutexLock lock(mu_);
  exclusive_ = false;
  cv_.NotifyAll();
}

void TuningServer::MergeAndTrain(int iters) {
  // Barrier guaranteed by the caller: no Add is in flight on any shard.
  // CollectNew's (shard index, arrival) order makes what the shared agent
  // sees independent of how the round's steps were scheduled.
  std::vector<tuner::Experience> fresh = shards_.CollectNew();
  util::WriterMutexLock lock(model_mu_);
  if (agent_ == nullptr) return;
  for (tuner::Experience& experience : fresh) {
    agent_->Observe(std::move(experience.transition));
  }
  for (int i = 0; i < iters; ++i) {
    agent_->TrainStep();
  }
}

util::StatusOr<size_t> TuningServer::StepRound() {
  std::vector<Session*> round;
  {
    util::MutexLock lock(mu_);
    if (draining_) {
      return util::Status::FailedPrecondition("server is draining");
    }
    BeginExclusive();
    for (auto& [id, slot] : sessions_) {
      if (slot.session->tuning->phase() == tuner::SessionPhase::kTuning) {
        slot.busy = true;
        slot.status.busy = true;
        round.push_back(slot.session.get());
      }
    }
  }

  // Fan the round out over the compute pool. Each task touches only its own
  // session (environment, collector, noise, shard); the one shared resource,
  // the model, is only read (ServerPolicy holds model_mu_ shared).
  std::vector<std::function<void()>> tasks;
  tasks.reserve(round.size());
  for (Session* session : round) {
    tasks.push_back([session] {
      util::StatusOr<tuner::StepRecord> outcome = session->tuning->Step();
      if (!outcome.ok()) {
        CDBTUNE_LOG(Warning) << "session " << session->id
                             << " step failed: " << outcome.status().ToString();
      }
    });
  }
  util::ComputeContext::Get().RunConcurrent(std::move(tasks));

  MergeAndTrain(options_.train_iters_per_round);

  uint64_t rounds = 0;
  {
    util::MutexLock lock(mu_);
    rounds = ++rounds_completed_;
    for (Session* session : round) {
      auto it = sessions_.find(session->id);
      CDBTUNE_CHECK(it != sessions_.end())
          << "round session " << session->id << " vanished";
      it->second.busy = false;
      RefreshStatus(&it->second);
    }
  }
  // Autosave at the barrier, while still exclusive: the checkpoint sees the
  // round fully applied (experiences merged, gradients taken) and nothing
  // else moving. A kill -9 after this point loses at most the next round.
  if (!options_.autosave_path.empty() && options_.autosave_every_rounds > 0 &&
      rounds % static_cast<uint64_t>(options_.autosave_every_rounds) == 0) {
    util::Status saved = SaveCheckpointExclusive(options_.autosave_path);
    if (!saved.ok()) {
      CDBTUNE_LOG(Warning) << "round " << rounds
                           << " autosave failed: " << saved.ToString();
    }
  }
  EndExclusive();
  return round.size();
}

util::Status TuningServer::Train(int iters) {
  if (iters < 0) {
    return util::Status::InvalidArgument("iters must be non-negative");
  }
  {
    util::MutexLock lock(mu_);
    BeginExclusive();
  }
  MergeAndTrain(iters);
  EndExclusive();
  return util::Status::Ok();
}

util::StatusOr<std::vector<double>> TuningServer::Recommend(
    const std::vector<double>& state) {
  util::ReaderMutexLock lock(model_mu_);
  if (agent_ == nullptr) {
    return util::Status::FailedPrecondition("no model adopted");
  }
  if (state.size() != agent_->options().state_dim) {
    return util::Status::InvalidArgument(
        "state has " + std::to_string(state.size()) + " dims, model wants " +
        std::to_string(agent_->options().state_dim));
  }
  return agent_->SelectAction(state, /*noise=*/nullptr);
}

util::StatusOr<SessionStatus> TuningServer::GetStatus(int id) const {
  util::MutexLock lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return util::Status::NotFound("no session " + std::to_string(id));
  }
  return it->second.status;
}

std::vector<SessionStatus> TuningServer::ListStatus() const {
  util::MutexLock lock(mu_);
  std::vector<SessionStatus> out;
  out.reserve(sessions_.size());
  for (const auto& [id, slot] : sessions_) {
    out.push_back(slot.status);
  }
  return out;
}

util::StatusOr<std::string> TuningServer::RenderBestConfig(int id) const {
  util::MutexLock lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return util::Status::NotFound("no session " + std::to_string(id));
  }
  const Slot& slot = it->second;
  if (slot.busy) {
    return util::Status::FailedPrecondition(
        "session " + std::to_string(id) + " is busy");
  }
  const Session& session = *slot.session;
  const knobs::KnobRegistry& registry = session.db->registry();
  const knobs::Config defaults = registry.DefaultConfig();
  const knobs::Config& best = session.tuning->result().best_config;
  std::string out;
  for (size_t i = 0; i < registry.size() && i < best.size(); ++i) {
    if (best[i] == defaults[i]) continue;
    if (!out.empty()) out += ',';
    out += registry.def(i).name;
    out += '=';
    out += FormatDouble(best[i]);
  }
  return out;
}

util::StatusOr<tuner::OnlineTuneResult> TuningServer::Close(int id) {
  std::unique_ptr<Session> session;
  {
    util::MutexLock lock(mu_);
    while (exclusive_) cv_.Wait(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return util::Status::NotFound("no session " + std::to_string(id));
    }
    if (it->second.busy) {
      return util::Status::FailedPrecondition(
          "session " + std::to_string(id) + " is busy");
    }
    session = std::move(it->second.session);
    sessions_.erase(it);
    free_shards_.push_back(session->shard);
  }
  // A mid-episode close still deploys the best configuration seen so far
  // (Finish is the paper's "recommend the knobs of the best performance").
  if (session->tuning->phase() == tuner::SessionPhase::kTuning) {
    CDBTUNE_CHECK_OK(session->tuning->Finish());
  }
  return session->tuning->result();
}

void TuningServer::DrainAndStop() {
  std::vector<std::unique_ptr<Session>> remaining;
  {
    util::MutexLock lock(mu_);
    draining_ = true;
    while (exclusive_ || in_flight_ != 0) cv_.Wait(mu_);
    for (auto& [id, slot] : sessions_) {
      remaining.push_back(std::move(slot.session));
    }
    sessions_.clear();
    for (const auto& session : remaining) {
      free_shards_.push_back(session->shard);
    }
    cv_.NotifyAll();
  }
  for (auto& session : remaining) {
    if (session->tuning->phase() == tuner::SessionPhase::kTuning) {
      CDBTUNE_CHECK_OK(session->tuning->Finish());
    }
  }
}

util::Status TuningServer::AppendCheckpointChunks(
    persist::ChunkWriter& writer) {
  {
    util::ReaderMutexLock lock(model_mu_);
    if (agent_ == nullptr) {
      return util::Status::FailedPrecondition(
          "no model adopted; nothing to checkpoint");
    }
    agent_->AppendChunks(writer);
    persist::Encoder enc;
    collector_template_.SaveBinary(enc);
    enc.WriteDoubleVec(best_offline_action_);
    writer.Add("server/model_meta", enc.Release());
  }
  {
    // Exclusivity (caller-held) is the pool's barrier: no Add in flight.
    persist::Encoder enc;
    shards_.SaveBinary(enc);
    writer.Add("server/pool", enc.Release());
  }
  // Chunk order is part of the checkpoint's bitwise contract — the locks
  // above/below are sequential (never nested), which also keeps this path
  // off the mu_ -> model_mu_ ordering entirely.
  util::MutexLock lock(mu_);
  {
    persist::Encoder enc;
    enc.WriteI64(next_id_);
    enc.WriteU64(rounds_completed_);
    enc.WriteU64(sessions_.size());
    for (const auto& [id, slot] : sessions_) enc.WriteI64(id);
    writer.Add("server/meta", enc.Release());
  }
  for (const auto& [id, slot] : sessions_) {
    const Session& session = *slot.session;
    const std::string base = "session/" + std::to_string(id) + "/";
    {
      persist::Encoder enc;
      SaveSessionSpecBinary(enc, session.spec);
      enc.WriteU64(session.shard);
      writer.Add(base + "spec", enc.Release());
    }
    {
      persist::Encoder enc;
      session.noise.SaveBinary(enc);
      session.collector.SaveBinary(enc);
      session.tuning->SaveBinary(enc);
      writer.Add(base + "state", enc.Release());
    }
  }
  return util::Status::Ok();
}

util::Status TuningServer::SaveCheckpointExclusive(const std::string& path) {
  persist::ChunkWriter writer;
  CDBTUNE_RETURN_IF_ERROR(AppendCheckpointChunks(writer));
  return persist::CheckpointStore(path).Write(writer);
}

util::Status TuningServer::SaveCheckpoint(const std::string& path) {
  {
    util::MutexLock lock(mu_);
    BeginExclusive();
  }
  util::Status saved = SaveCheckpointExclusive(path);
  EndExclusive();
  return saved;
}

util::StatusOr<RestoreReport> TuningServer::RestoreCheckpoint(
    const std::string& path) {
  persist::CheckpointStore store(path);
  auto loaded = store.Load();
  CDBTUNE_RETURN_IF_ERROR(loaded.status());
  const persist::ChunkFile& file = loaded->file;
  for (const persist::DroppedGeneration& dropped : loaded->dropped) {
    CDBTUNE_LOG(Warning) << "restore skipped " << dropped.path << ": "
                         << dropped.error;
  }

  {
    util::MutexLock lock(mu_);
    BeginExclusive();
  }
  // Everything below stages into locals and only swaps into the server at
  // the very end — a torn or mismatched checkpoint leaves it untouched.
  auto result = [&]() -> util::StatusOr<RestoreReport> {
    {
      util::MutexLock lock(mu_);
      if (draining_) {
        return util::Status::FailedPrecondition("server is draining");
      }
      if (!sessions_.empty()) {
        return util::Status::FailedPrecondition(
            "restore needs a server with no open sessions");
      }
    }

    rl::DdpgOptions agent_options;
    CDBTUNE_RETURN_IF_ERROR(
        file.Decode("agent/options", [&](persist::Decoder& dec) {
          return rl::LoadDdpgOptionsBinary(dec, &agent_options);
        }));
    auto staged_agent =
        std::make_unique<rl::DdpgAgent>(agent_options, rl::kRestoreTarget);
    CDBTUNE_RETURN_IF_ERROR(staged_agent->RestoreFromChunks(file));

    tuner::MetricsCollector staged_collector;
    std::vector<double> staged_best_action;
    CDBTUNE_RETURN_IF_ERROR(
        file.Decode("server/model_meta", [&](persist::Decoder& dec) {
          CDBTUNE_RETURN_IF_ERROR(staged_collector.LoadBinary(dec));
          if (!dec.ReadDoubleVec(&staged_best_action)) return dec.status();
          return tuner::ValidateBestAction(staged_best_action,
                                           agent_options.action_dim);
        }));

    tuner::ShardedExperiencePool staged_pool(options_.max_sessions,
                                             options_.shard_capacity);
    CDBTUNE_RETURN_IF_ERROR(
        file.Decode("server/pool", [&](persist::Decoder& dec) {
          return staged_pool.LoadBinary(dec, agent_options.state_dim,
                                        agent_options.action_dim);
        }));

    int64_t next_id = 0;
    uint64_t rounds = 0;
    std::vector<int> ids;
    CDBTUNE_RETURN_IF_ERROR(
        file.Decode("server/meta", [&](persist::Decoder& dec) {
          uint64_t count = 0;
          if (!dec.ReadI64(&next_id) || !dec.ReadU64(&rounds) ||
              !dec.ReadU64(&count)) {
            return dec.status();
          }
          if (count > options_.max_sessions) {
            return util::Status::DataLoss(
                "checkpoint has " + std::to_string(count) +
                " sessions, server capacity is " +
                std::to_string(options_.max_sessions));
          }
          // Ids are never reused: next_id fits an int, and every session
          // id lies below it, so the next OPEN cannot collide.
          if (next_id < 0 || next_id > INT_MAX) {
            return util::Status::DataLoss("checkpoint next session id " +
                                          std::to_string(next_id) +
                                          " is out of range");
          }
          for (uint64_t i = 0; i < count; ++i) {
            int64_t id = 0;
            if (!dec.ReadI64(&id)) return dec.status();
            if (id < 0 || id >= next_id) {
              return util::Status::DataLoss(
                  "checkpoint session id " + std::to_string(id) +
                  " is outside [0, " + std::to_string(next_id) + ")");
            }
            ids.push_back(static_cast<int>(id));
          }
          return util::Status::Ok();
        }));

    std::map<int, Slot> staged_sessions;
    std::vector<bool> shard_used(options_.max_sessions, false);
    for (int id : ids) {
      const std::string base = "session/" + std::to_string(id) + "/";
      SessionSpec spec;
      uint64_t shard = 0;
      CDBTUNE_RETURN_IF_ERROR(
          file.Decode(base + "spec", [&](persist::Decoder& dec) {
            CDBTUNE_RETURN_IF_ERROR(LoadSessionSpecBinary(dec, &spec));
            if (!dec.ReadU64(&shard)) return dec.status();
            return util::Status::Ok();
          }));
      if (shard >= options_.max_sessions || shard_used[shard]) {
        return util::Status::DataLoss("session " + std::to_string(id) +
                                      " has an invalid shard assignment");
      }
      shard_used[shard] = true;

      auto provisioned = ProvisionSession(spec, shard,
                                          tuner::MetricsCollector(),
                                          agent_options);
      if (!provisioned.ok()) {
        return util::Status::DataLoss("session " + std::to_string(id) + ": " +
                                      provisioned.status().message());
      }
      std::unique_ptr<Session> session = std::move(provisioned).value();
      session->id = id;
      CDBTUNE_RETURN_IF_ERROR(
          file.Decode(base + "state", [&](persist::Decoder& dec) {
            CDBTUNE_RETURN_IF_ERROR(session->noise.LoadBinary(dec));
            CDBTUNE_RETURN_IF_ERROR(session->collector.LoadBinary(dec));
            return session->tuning->RestoreBinary(dec);
          }));
      Slot slot;
      slot.session = std::move(session);
      {
        // The slot is still a local, but RefreshStatus's static contract is
        // REQUIRES(mu_); a brief uncontended lock keeps one honest contract
        // instead of a second "trust me" unlocked variant.
        util::MutexLock lock(mu_);
        RefreshStatus(&slot);
      }
      staged_sessions.emplace(id, std::move(slot));
    }

    RestoreReport report;
    report.path = loaded->path;
    report.generation = loaded->generation;
    report.sessions = staged_sessions.size();
    report.rounds_completed = rounds;
    report.dropped = std::move(loaded->dropped);

    // Commit. Session sinks/policies hold pointers to the server and its
    // shards_ member, both of which keep their addresses through the swap.
    // The only place in the repo where mu_ and model_mu_ nest — in the
    // rank order (kServerSessions < kServerAgent) the annotations encode.
    util::MutexLock lock(mu_);
    {
      util::WriterMutexLock model_lock(model_mu_);
      agent_ = std::move(staged_agent);
      collector_template_ = std::move(staged_collector);
      best_offline_action_ = std::move(staged_best_action);
    }
    shards_ = std::move(staged_pool);
    sessions_ = std::move(staged_sessions);
    free_shards_.clear();
    for (size_t i = options_.max_sessions; i > 0; --i) {
      if (!shard_used[i - 1]) free_shards_.push_back(i - 1);
    }
    next_id_ = static_cast<int>(next_id);
    rounds_completed_ = rounds;
    return report;
  }();
  EndExclusive();
  return result;
}

util::StatusOr<RebuildReport> TuningServer::Rebuild(const RebuildSpec& spec) {
  if (spec.train_iters < 0) {
    return util::Status::InvalidArgument("train_iters must be non-negative");
  }
  {
    util::MutexLock lock(mu_);
    if (draining_) {
      return util::Status::FailedPrecondition("server is draining");
    }
    BeginExclusive();
  }
  auto result = [&]() -> util::StatusOr<RebuildReport> {
    util::WriterMutexLock lock(model_mu_);
    if (agent_ == nullptr) {
      return util::Status::FailedPrecondition("no model adopted");
    }
    rl::DdpgOptions rebuilt = agent_->options();
    if (!spec.actor_hidden.empty()) rebuilt.actor_hidden = spec.actor_hidden;
    if (spec.critic_embed != 0) rebuilt.critic_embed = spec.critic_embed;
    if (!spec.critic_hidden.empty()) {
      rebuilt.critic_hidden = spec.critic_hidden;
    }
    if (spec.seed != 0) rebuilt.seed = spec.seed;
    CDBTUNE_RETURN_IF_ERROR(rebuilt.Validate());

    RebuildReport report;
    report.params_before = agent_->NumParameters();
    auto fresh = std::make_unique<rl::DdpgAgent>(rebuilt);
    // Warm start (paper Table 6 as a live operation): the durable pool —
    // not the old agent's replay — re-seeds the fresh network, so the
    // rebuild works across architecture changes.
    tuner::MemoryPool snapshot;
    shards_.SnapshotInto(&snapshot);
    for (size_t i = 0; i < snapshot.size(); ++i) {
      fresh->Observe(snapshot.at(i).transition);
    }
    report.experiences = snapshot.size();
    for (int i = 0; i < spec.train_iters; ++i) fresh->TrainStep();
    report.params_after = fresh->NumParameters();
    agent_ = std::move(fresh);
    return report;
  }();
  // The snapshot already fed every retained experience to the new agent;
  // advance the merge cursors so the next MergeAndTrain doesn't re-feed.
  if (result.ok()) (void)shards_.CollectNew();
  EndExclusive();
  return result;
}

uint64_t TuningServer::rounds_completed() const {
  util::MutexLock lock(mu_);
  return rounds_completed_;
}

size_t TuningServer::open_sessions() const {
  util::MutexLock lock(mu_);
  return sessions_.size();
}

}  // namespace cdbtune::server
