#ifndef CDBTUNE_SERVER_TUNING_SERVER_H_
#define CDBTUNE_SERVER_TUNING_SERVER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "env/instance.h"
#include "persist/atomic_file.h"
#include "rl/ddpg.h"
#include "rl/noise.h"
#include "tuner/cdbtune.h"
#include "tuner/memory_pool.h"
#include "tuner/metrics_collector.h"
#include "tuner/tuning_session.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "workload/workload.h"

namespace cdbtune::server {

/// What one tenant asks for when opening a tuning session: which engine to
/// tune, under which workload and hardware shape, with which seed. Every
/// session gets its own database instance — the server multiplexes the
/// *model*, not the environment (the paper's train-once / tune-many
/// deployment of Section 2.1.2 / Figure 2).
struct SessionSpec {
  /// "sim" (SimulatedCdb::MysqlCdb — microsecond stress tests) or "mini"
  /// (engine::MiniCdb — the real storage engine on a virtual-time disk).
  /// Both use the MySQL knob catalog, so one shared agent serves either.
  std::string engine = "sim";
  workload::WorkloadSpec workload = workload::SysbenchReadWrite();
  env::HardwareSpec hardware = env::CdbA();
  /// Seeds the instance's measurement noise and the session's exploration
  /// stream. Two sessions with equal specs produce bitwise-equal
  /// trajectories (given a frozen model), no matter what else the server
  /// is doing — see the determinism notes on TuningServer.
  uint64_t seed = 1;
  /// Online tuning step budget (paper Section 2.1.2: at most 5).
  int max_steps = 5;
  /// Rows bulk-loaded when engine == "mini".
  uint64_t mini_table_rows = 20000;
  /// Seconds per stress test; < 0 uses the server default.
  double stress_duration_s = -1.0;
  /// Guardrail override: -1 inherits the server's safety options, 0 forces
  /// the guardrail off for this session, 1 forces it on.
  int safety = -1;
  /// Injected perf regression for the "sim" engine (guardrail drills and the
  /// crash-recovery smoke; InvalidArgument on other engines). Empty knob or
  /// zero severity disables. See SimulatedCdb::DegradeSpec.
  std::string degrade_knob;
  uint64_t degrade_after = 0;
  double degrade_severity = 0.0;

  /// InvalidArgument unless the spec is safe to provision: max_steps >= 1;
  /// stress_duration_s finite and < 0 or in (0, 3600]; finite RAM and disk
  /// above 0 and at least one core; for "mini", at most 256 MiB of scaled
  /// RAM + disk (the most MiniCdb can allocate for buffer frames and
  /// pages); degrade_severity in [0, 1); workload numbers finite, fractions
  /// in [0, 1], client_threads >= 1. The server runs it on every spec it
  /// builds a session from, off the wire or out of a checkpoint.
  util::Status Validate() const;
};

/// Point-in-time view of one session, safe to read while the session is
/// being stepped on another thread (it is a snapshot updated under the
/// server lock after every state change, not a live reference).
struct SessionStatus {
  int id = -1;
  tuner::SessionPhase phase = tuner::SessionPhase::kCreated;
  std::string engine;
  std::string workload;
  int steps_done = 0;
  double initial_throughput = 0.0;
  double initial_latency = 0.0;
  double best_throughput = 0.0;
  double best_latency = 0.0;
  double last_reward = 0.0;
  bool busy = false;
  /// Guardrail scrape (DESIGN.md §12); meaningful only when safety_enabled.
  bool safety_enabled = false;
  double baseline_throughput = 0.0;
  double baseline_latency = 0.0;
  double trust_width = 0.0;
  int violations = 0;
  int rollbacks = 0;
  int rewarms = 0;
  /// The live config equals the guardrail's last-known-good config (set
  /// after a rollback landed, or while nothing better has been accepted).
  bool on_last_known_good = false;
};

struct TuningServerOptions {
  /// Concurrent session cap; also the shard count of the experience pool.
  size_t max_sessions = 16;
  /// Ring capacity per shard. A session's unmerged experiences beyond this
  /// are dropped oldest-first (counted, never blocking).
  size_t shard_capacity = 64;
  /// Default stress-test duration (paper: ~150 s of load per step).
  double stress_duration_s = 150.0;
  /// Gradient steps applied after each StepRound over the merged
  /// experiences. 0 freezes the model: sessions become fully independent
  /// given the adopted weights (the pool still records everything).
  int train_iters_per_round = 0;
  /// When non-empty, StepRound writes a full checkpoint to this path every
  /// `autosave_every_rounds` completed rounds (atomically, rotating
  /// CheckpointStore's default generations). A kill -9 between rounds then
  /// loses at most one round of work.
  std::string autosave_path;
  int autosave_every_rounds = 1;
  /// Server-wide guardrail defaults; per-session SessionSpec::safety
  /// overrides enablement (DESIGN.md §12).
  safety::GuardrailOptions safety;
};

/// What RestoreCheckpoint actually loaded: which generation survived, which
/// (if any) were dropped as torn/corrupt, and how many sessions came back.
struct RestoreReport {
  std::string path;
  int generation = 0;
  size_t sessions = 0;
  uint64_t rounds_completed = 0;
  std::vector<persist::DroppedGeneration> dropped;
};

/// Network-shape override for a warm-started rebuild (paper Table 6 as a
/// live operation). Empty vectors / zero scalars keep the current value.
struct RebuildSpec {
  std::vector<size_t> actor_hidden;
  size_t critic_embed = 0;
  std::vector<size_t> critic_hidden;
  uint64_t seed = 0;
  /// Gradient steps applied to the fresh agent over the replayed history.
  int train_iters = 0;
};

struct RebuildReport {
  size_t experiences = 0;
  size_t params_before = 0;
  size_t params_after = 0;
};

/// Multi-session tuning daemon: one trained standard model serving many
/// concurrent tuning requests (the paper's deployment shape — training
/// happens once against standard workloads; each cloud tenant then gets a
/// short online fine-tuning session).
///
/// Concurrency and determinism model (DESIGN.md "Multi-session tuning
/// server"):
///
///   - Each session owns its environment: a private database instance,
///     metrics-collector statistics, OU exploration stream, and one shard of
///     the sharded experience pool. Nothing session-affecting is shared.
///   - The shared agent is the only cross-session state. Policy inference
///     (DdpgAgent::SelectAction over nn::Sequential::Infer) writes nothing,
///     so steps hold `model_mu_` shared and every core evaluates the actor
///     at once; each call is a pure function of weights + input, so timing
///     cannot leak into results. Only training, restore, rebuild and model
///     adoption hold it exclusive.
///   - Training only happens at barriers (StepRound / Train) while no step
///     is in flight; merged experiences arrive in (shard index, arrival)
///     order. Hence a round-driven run is bitwise reproducible for fixed
///     seeds at any CDBTUNE_THREADS setting, even with training enabled.
///
/// Thread safety: all public methods are safe to call concurrently.
/// Step/StepRound/Train block while another exclusive phase runs; Step on a
/// session already being stepped fails fast with FailedPrecondition rather
/// than queueing.
class TuningServer {
 public:
  explicit TuningServer(TuningServerOptions options = {});
  ~TuningServer();

  TuningServer(const TuningServer&) = delete;
  TuningServer& operator=(const TuningServer&) = delete;

  /// Adopts a trained standard model: clones the agent's weights, copies the
  /// input-normalization statistics and the best offline action. Must be
  /// called (once) before any Open. The source tuner is not retained.
  util::Status AdoptModel(tuner::CdbTuner& trained);

  /// Opens a session: provisions the instance, runs the baseline stress
  /// test, and returns the session id. Ids count up from 0 and only a
  /// session that registers takes one. Fails when the server is at
  /// capacity, draining, out of ids (INT_MAX were taken), or has no model.
  util::StatusOr<int> Open(const SessionSpec& spec);

  /// Advances one session by one tuning step.
  util::StatusOr<tuner::StepRecord> Step(int id);

  /// Steps every tuning-phase session once, fanning out over the compute
  /// pool, then merges new experiences into the shared agent and applies
  /// `train_iters_per_round` gradient steps. Returns the number of sessions
  /// stepped.
  util::StatusOr<size_t> StepRound();

  /// Merges pending experiences and runs `iters` gradient steps now.
  util::Status Train(int iters);

  /// Greedy recommendation from the shared model for an arbitrary
  /// (already-standardized) state vector; no session required.
  util::StatusOr<std::vector<double>> Recommend(
      const std::vector<double>& state);

  util::StatusOr<SessionStatus> GetStatus(int id) const;
  std::vector<SessionStatus> ListStatus() const;

  /// Renders the session's best configuration as "knob=value" pairs
  /// (comma-joined, only knobs differing from the engine default).
  util::StatusOr<std::string> RenderBestConfig(int id) const;

  /// Finishes the session (deploying its best configuration), releases its
  /// slot, and returns the tuning result. A mid-episode close keeps the
  /// best configuration seen so far — other sessions are unaffected.
  util::StatusOr<tuner::OnlineTuneResult> Close(int id);

  /// Refuses new sessions, waits for in-flight steps, and closes every
  /// remaining session (deploying best configs) in id order.
  void DrainAndStop();

  /// Writes the server's complete tuning state — shared agent, experience
  /// pool, normalization statistics, best offline action, and every open
  /// session (spec, progress, exploration stream, environment state) — as
  /// one chunked checkpoint at `path`, atomically, rotating
  /// CheckpointStore's default generations. Runs at a round barrier: it
  /// waits for in-flight steps, exactly like Train.
  util::Status SaveCheckpoint(const std::string& path);

  /// Rebuilds the server from a checkpoint written by SaveCheckpoint:
  /// fresh agent (constructed from the checkpoint's recorded options), pool,
  /// statistics, and re-provisioned sessions whose environments restore
  /// their saved state through DbInterface::RestoreBinary. Agent options,
  /// session specs and session ids are validated before anything is built
  /// from them (DATA_LOSS when they are out of range). Falls back
  /// generation-by-generation past torn or corrupt files. Requires a server
  /// with no open sessions and matching pool shape; on any failure the
  /// server is left untouched (everything is staged and validated before
  /// the swap).
  util::StatusOr<RestoreReport> RestoreCheckpoint(const std::string& path);

  /// Warm-starts a *differently shaped* agent from the server's accumulated
  /// experience (Table 6 as a live operation): snapshots the pool, builds a
  /// fresh agent with `spec`'s architecture overrides, replays every
  /// retained experience into it, applies `spec.train_iters` gradient
  /// steps, and swaps it in as the shared model. Open sessions carry on
  /// against the new model. InvalidArgument, before anything is built, when
  /// the merged options fail DdpgOptions::Validate.
  util::StatusOr<RebuildReport> Rebuild(const RebuildSpec& spec);

  /// StepRound barriers completed since construction (or restore).
  uint64_t rounds_completed() const;

  size_t open_sessions() const;
  bool model_ready() const;
  const tuner::ShardedExperiencePool& pool() const { return shards_; }
  const TuningServerOptions& options() const { return options_; }

 private:
  struct Session;

  /// One registry entry: the session object plus the server-side bookkeeping
  /// the registry lock protects. The map itself is CDBTUNE_GUARDED_BY(mu_),
  /// so every path to `busy` / `status` is lock-checked at compile time;
  /// `session` is handed out as a raw pointer to exactly one stepping thread
  /// at a time (busy flag / round exclusivity), which is an ownership
  /// discipline the static analysis cannot express — see DESIGN.md "Lock
  /// discipline".
  struct Slot {
    std::unique_ptr<Session> session;
    /// A step is in flight on another thread; reject concurrent Step/Close.
    bool busy = false;
    /// Point-in-time snapshot served to GetStatus/ListStatus, refreshed
    /// under mu_ after every state change.
    SessionStatus status;
  };

  /// PolicySource over the shared agent: infers under the model lock held
  /// shared (concurrent with every other session's inference) and injects
  /// the *session's* exploration stream.
  class ServerPolicy : public tuner::PolicySource {
   public:
    ServerPolicy(TuningServer* server, rl::ActionNoise* noise)
        : server_(server), noise_(noise) {}
    std::vector<double> ProposeAction(const std::vector<double>& state,
                                      bool explore) override;
    std::vector<double> BestKnownAction() const override;

   private:
    TuningServer* server_;
    rl::ActionNoise* noise_;
  };

  /// ExperienceSink into the session's own shard (mutex-free by ownership).
  class ShardSink : public tuner::ExperienceSink {
   public:
    ShardSink(tuner::ShardedExperiencePool* pool, size_t shard)
        : pool_(pool), shard_(shard) {}
    void Record(tuner::Experience experience) override {
      pool_->Add(shard_, std::move(experience));
    }

   private:
    tuner::ShardedExperiencePool* pool_;
    size_t shard_;
  };

  /// Builds the database instance for `spec` (nullptr + error status on an
  /// unknown engine name).
  static util::StatusOr<std::unique_ptr<env::DbInterface>> MakeDb(
      const SessionSpec& spec);

  /// The one session builder behind Open and RestoreCheckpoint: validates
  /// `spec`, provisions the instance, requires its knob space to match
  /// `model`'s action space (either failure is INVALID_ARGUMENT), and wires
  /// the exploration stream (the model's OU parameters) and the
  /// TuningSession. The caller assigns the session's id.
  util::StatusOr<std::unique_ptr<Session>> ProvisionSession(
      const SessionSpec& spec, size_t shard, tuner::MetricsCollector collector,
      const rl::DdpgOptions& model);

  /// Refreshes `slot`'s status snapshot from its TuningSession. The slot's
  /// session must not be mid-step on another thread.
  void RefreshStatus(Slot* slot) CDBTUNE_REQUIRES(mu_);

  /// Marks `id` busy for a step. Fails when unknown, busy, draining, or in
  /// an exclusive phase.
  util::StatusOr<Session*> BeginStep(int id) CDBTUNE_EXCLUDES(mu_);
  void EndStep(int id) CDBTUNE_EXCLUDES(mu_);

  /// Waits until no step is in flight, then claims exclusive access
  /// (training / checkpoint / drain).
  void BeginExclusive() CDBTUNE_REQUIRES(mu_);
  void EndExclusive() CDBTUNE_EXCLUDES(mu_);

  /// Feeds every un-merged experience to the agent and runs `iters`
  /// gradient steps. Caller holds exclusivity (no Add in flight).
  void MergeAndTrain(int iters) CDBTUNE_EXCLUDES(mu_, model_mu_);

  /// Serializes the full server state into `writer`; FailedPrecondition
  /// before a model is adopted. Caller holds exclusivity (round barrier);
  /// takes mu_ / model_mu_ internally.
  util::Status AppendCheckpointChunks(persist::ChunkWriter& writer)
      CDBTUNE_EXCLUDES(mu_, model_mu_);

  /// SaveCheckpoint body without the exclusivity dance — called by
  /// SaveCheckpoint and by StepRound's autosave while already exclusive.
  util::Status SaveCheckpointExclusive(const std::string& path)
      CDBTUNE_EXCLUDES(mu_, model_mu_);

  TuningServerOptions options_;
  /// Guarded by the exclusivity barrier, not a mutex: sessions Add to their
  /// own shard while stepping; CollectNew/Save/Snapshot only run while
  /// `exclusive_` holds the step count at zero (DESIGN.md §8).
  tuner::ShardedExperiencePool shards_;

  /// Session-registry lock (lock_rank::kServerSessions).
  mutable util::Mutex mu_{util::lock_rank::kServerSessions,
                          "TuningServer::mu_"};
  util::CondVar cv_;
  std::map<int, Slot> sessions_ CDBTUNE_GUARDED_BY(mu_);
  std::vector<size_t> free_shards_ CDBTUNE_GUARDED_BY(mu_);
  int next_id_ CDBTUNE_GUARDED_BY(mu_) = 0;
  size_t in_flight_ CDBTUNE_GUARDED_BY(mu_) = 0;
  bool exclusive_ CDBTUNE_GUARDED_BY(mu_) = false;
  bool draining_ CDBTUNE_GUARDED_BY(mu_) = false;
  uint64_t rounds_completed_ CDBTUNE_GUARDED_BY(mu_) = 0;

  /// Shared-model lock (lock_rank::kServerAgent; initialized in the
  /// constructor — an attribute between declarator and brace-initializer
  /// does not parse). Readers — ProposeAction, BestKnownAction, Recommend,
  /// Open's snapshot, model_ready, AppendCheckpointChunks — hold it shared;
  /// AdoptModel, MergeAndTrain, Rebuild and the restore commit hold it
  /// exclusive. Independent of mu_; the only nesting ever allowed is
  /// mu_ -> model_mu_ (the restore commit), which both the rank order and
  /// the acquired_after annotation encode.
  mutable util::SharedMutex model_mu_ CDBTUNE_ACQUIRED_AFTER(mu_);
  std::unique_ptr<rl::DdpgAgent> agent_ CDBTUNE_GUARDED_BY(model_mu_);
  tuner::MetricsCollector collector_template_ CDBTUNE_GUARDED_BY(model_mu_);
  std::vector<double> best_offline_action_ CDBTUNE_GUARDED_BY(model_mu_);
};

}  // namespace cdbtune::server

#endif  // CDBTUNE_SERVER_TUNING_SERVER_H_
