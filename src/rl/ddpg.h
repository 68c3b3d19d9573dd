#ifndef CDBTUNE_RL_DDPG_H_
#define CDBTUNE_RL_DDPG_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "persist/chunk.h"
#include "rl/noise.h"
#include "rl/replay.h"
#include "util/random.h"
#include "util/status.h"

namespace cdbtune::rl {

/// Hyperparameters and architecture of the DDPG agent. Defaults follow the
/// paper: Table 4 (alpha = 0.001, gamma = 0.99, weights U(-0.1, 0.1)) and
/// Table 5 (actor 128-128-128-64 with LeakyReLU(0.2)/BatchNorm/Tanh/
/// Dropout(0.3); critic parallel 128+128 -> 256 -> 64 -> 1). The width
/// fields exist so the Table 6 network-architecture sweep can rebuild
/// variants.
struct DdpgOptions {
  size_t state_dim = 63;
  size_t action_dim = 266;

  /// Hidden widths of the actor after the input layer. The last entry feeds
  /// the #Knobs output layer.
  std::vector<size_t> actor_hidden = {128, 128, 128, 64};
  /// Width of each parallel embedding in the critic (state and action).
  size_t critic_embed = 128;
  /// Trunk widths after the concatenated embeddings.
  std::vector<size_t> critic_hidden = {256, 64};

  double actor_lr = 1e-4;
  double critic_lr = 1e-3;  // Paper Table 4: alpha = 0.001.
  double gamma = 0.99;
  /// Polyak factor for target networks.
  double tau = 0.01;
  size_t batch_size = 32;
  size_t replay_capacity = 100000;
  bool prioritized_replay = true;
  double dropout_rate = 0.3;
  double leaky_slope = 0.2;
  /// Exploration noise (Ornstein-Uhlenbeck) and its per-step decay.
  double noise_sigma = 0.20;
  double noise_theta = 0.15;
  double noise_decay = 0.996;
  double min_noise_sigma = 0.02;
  double grad_clip = 5.0;
  uint64_t seed = 7;

  /// InvalidArgument unless every field that sizes an allocation or reaches
  /// a construction-time CHECK is in range: state_dim, action_dim,
  /// critic_embed and every layer width in [1, 1024] (2x Table 6's widest
  /// layer); 1-8 actor and at most 8 critic hidden layers; replay_capacity
  /// in [1, 10^6]; batch_size in [1, replay_capacity]; dropout_rate in
  /// [0, 1); grad_clip > 0; every double finite. Run on options from outside
  /// the program (REBUILD, a checkpoint) before an agent is built from them.
  util::Status Validate() const;
};

/// Bit-exact DdpgOptions codec; the options chunk lets a loader rebuild an
/// identically-shaped agent before applying the rest of a checkpoint. The
/// loader runs DdpgOptions::Validate; out-of-range options are DATA_LOSS.
void SaveDdpgOptionsBinary(persist::Encoder& enc, const DdpgOptions& o);
util::Status LoadDdpgOptionsBinary(persist::Decoder& dec, DdpgOptions* out);
/// Human-readable name of the first differing field, or empty when equal.
std::string DdpgOptionsDiff(const DdpgOptions& a, const DdpgOptions& b);

/// Diagnostics from one optimization step.
struct TrainStats {
  double critic_loss = 0.0;
  double actor_objective = 0.0;  // mean Q of the actor's actions.
  double mean_td_error = 0.0;
};

/// Deep Deterministic Policy Gradient agent (Section 4.1, Algorithm 1).
///
/// Actions live in [0, 1]^action_dim — the normalized knob space; the
/// caller (KnobSpace) maps them to raw configurations. States are the
/// processed 63-metric vectors from the metrics collector.
class DdpgAgent {
 public:
  explicit DdpgAgent(DdpgOptions options);

  /// The single-tenant entry point: policy output mu(s), plus, when
  /// `explore`, a draw from the agent-owned Ornstein-Uhlenbeck process,
  /// clipped to [0, 1]. That process is session-affecting shared state:
  /// every caller advances the same stream, so two tuning sessions
  /// exploring through one agent would get trajectories that depend on
  /// scheduling order. Concurrent sessions use SelectAction below.
  std::vector<double> Act(const std::vector<double>& state, bool explore);

  /// Policy output plus exploration noise drawn from the *caller's* process
  /// (nullptr = greedy), clipped to [0, 1]. This is the multi-session entry
  /// point: each session owns its noise stream, so trajectories are
  /// independent of how sessions interleave. The actor pass is
  /// nn::Sequential::Infer, which writes no agent state, so any number of
  /// threads may call this at once; only TrainStep, RestoreFromChunks and
  /// CloneWeightsFrom must not run alongside it.
  std::vector<double> SelectAction(const std::vector<double>& state,
                                   ActionNoise* noise) const;

  /// Stores a transition in replay memory.
  void Observe(Transition transition);

  /// One minibatch update of critic and actor plus target soft-updates
  /// (steps 1-7 of the paper's Algorithm 1). No-op (returns zeros) until the
  /// replay holds at least one batch.
  TrainStats TrainStep();

  /// Anneals exploration; call once per environment step.
  void DecayNoise();

  size_t replay_size() const { return replay_->size(); }
  const DdpgOptions& options() const { return options_; }

  /// Critic estimate Q(s, a); exposed for tests and diagnostics.
  double EstimateQ(const std::vector<double>& state,
                   const std::vector<double>& action) const;

  /// Writes the *complete* agent state as checkpoint chunks under `prefix`
  /// (DESIGN.md §9): options, both online and both target networks
  /// (parameters + BatchNorm buffers), per-parameter Adam moments and step
  /// counts, the replay buffer with its priorities, the OU exploration
  /// process, and the agent's rng stream. A restored agent continues
  /// training bitwise identically to one that was never saved.
  void AppendChunks(persist::ChunkWriter& writer,
                    const std::string& prefix = "agent/") const;

  /// Restores from chunks written by AppendChunks. The agent must have been
  /// constructed with exactly the options recorded in the checkpoint
  /// (validated first; mismatch → kDataLoss before anything is touched).
  /// On a decode error partway through, this agent may hold a mix of old
  /// and new state — callers needing all-or-nothing semantics restore into
  /// a scratch agent and swap, as CdbTuner::LoadModel and the server do.
  util::Status RestoreFromChunks(const persist::ChunkFile& file,
                                 const std::string& prefix = "agent/");

  /// Hard-copies another agent's network weights (used to clone a trained
  /// standard model before online fine-tuning, Section 2.1.2).
  void CloneWeightsFrom(DdpgAgent& other);

  /// Total learnable parameters across actor + critic (Table 6 reporting).
  size_t NumParameters();

 private:
  nn::Sequential BuildActor();
  nn::Sequential BuildCritic();
  static nn::Matrix CriticInput(const nn::Matrix& states,
                                const nn::Matrix& actions);

  DdpgOptions options_;
  util::Rng rng_;

  nn::Sequential actor_;
  nn::Sequential critic_;
  nn::Sequential actor_target_;
  nn::Sequential critic_target_;
  std::unique_ptr<nn::Adam> actor_opt_;
  std::unique_ptr<nn::Adam> critic_opt_;
  std::unique_ptr<ReplayBuffer> replay_;
  OrnsteinUhlenbeckNoise noise_;
};

}  // namespace cdbtune::rl

#endif  // CDBTUNE_RL_DDPG_H_
