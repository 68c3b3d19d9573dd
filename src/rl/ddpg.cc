#include "rl/ddpg.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <memory>

#include "util/check.h"
#include "util/thread_pool.h"

namespace cdbtune::rl {

using nn::Matrix;

void SaveDdpgOptionsBinary(persist::Encoder& enc, const DdpgOptions& o) {
  enc.WriteU64(o.state_dim);
  enc.WriteU64(o.action_dim);
  enc.WriteU64(o.actor_hidden.size());
  for (size_t w : o.actor_hidden) enc.WriteU64(w);
  enc.WriteU64(o.critic_embed);
  enc.WriteU64(o.critic_hidden.size());
  for (size_t w : o.critic_hidden) enc.WriteU64(w);
  enc.WriteDouble(o.actor_lr);
  enc.WriteDouble(o.critic_lr);
  enc.WriteDouble(o.gamma);
  enc.WriteDouble(o.tau);
  enc.WriteU64(o.batch_size);
  enc.WriteU64(o.replay_capacity);
  enc.WriteBool(o.prioritized_replay);
  enc.WriteDouble(o.dropout_rate);
  enc.WriteDouble(o.leaky_slope);
  enc.WriteDouble(o.noise_sigma);
  enc.WriteDouble(o.noise_theta);
  enc.WriteDouble(o.noise_decay);
  enc.WriteDouble(o.min_noise_sigma);
  enc.WriteDouble(o.grad_clip);
  enc.WriteU64(o.seed);
}

util::Status LoadDdpgOptionsBinary(persist::Decoder& dec, DdpgOptions* out) {
  DdpgOptions o;
  uint64_t state_dim = 0, action_dim = 0, actor_layers = 0;
  if (!dec.ReadU64(&state_dim) || !dec.ReadU64(&action_dim) ||
      !dec.ReadU64(&actor_layers)) {
    return dec.status();
  }
  // A corrupt layer count would otherwise drive a giant resize; the layer
  // list cannot be larger than the remaining payload.
  if (actor_layers > dec.remaining() / 8) return util::Status::DataLoss(
      "implausible actor layer count in options chunk");
  o.state_dim = state_dim;
  o.action_dim = action_dim;
  o.actor_hidden.resize(actor_layers);
  for (size_t i = 0; i < actor_layers; ++i) {
    uint64_t w = 0;
    if (!dec.ReadU64(&w)) return dec.status();
    o.actor_hidden[i] = w;
  }
  uint64_t critic_embed = 0, critic_layers = 0;
  if (!dec.ReadU64(&critic_embed) || !dec.ReadU64(&critic_layers)) {
    return dec.status();
  }
  if (critic_layers > dec.remaining() / 8) return util::Status::DataLoss(
      "implausible critic layer count in options chunk");
  o.critic_embed = critic_embed;
  o.critic_hidden.resize(critic_layers);
  for (size_t i = 0; i < critic_layers; ++i) {
    uint64_t w = 0;
    if (!dec.ReadU64(&w)) return dec.status();
    o.critic_hidden[i] = w;
  }
  uint64_t batch_size = 0, replay_capacity = 0, seed = 0;
  if (!dec.ReadDouble(&o.actor_lr) || !dec.ReadDouble(&o.critic_lr) ||
      !dec.ReadDouble(&o.gamma) || !dec.ReadDouble(&o.tau) ||
      !dec.ReadU64(&batch_size) || !dec.ReadU64(&replay_capacity) ||
      !dec.ReadBool(&o.prioritized_replay) ||
      !dec.ReadDouble(&o.dropout_rate) || !dec.ReadDouble(&o.leaky_slope) ||
      !dec.ReadDouble(&o.noise_sigma) || !dec.ReadDouble(&o.noise_theta) ||
      !dec.ReadDouble(&o.noise_decay) || !dec.ReadDouble(&o.min_noise_sigma) ||
      !dec.ReadDouble(&o.grad_clip) || !dec.ReadU64(&seed)) {
    return dec.status();
  }
  o.batch_size = batch_size;
  o.replay_capacity = replay_capacity;
  o.seed = seed;
  util::Status valid = o.Validate();
  if (!valid.ok()) {
    return util::Status::DataLoss("checkpoint agent options: " +
                                  valid.message());
  }
  *out = std::move(o);
  return util::Status::Ok();
}

util::Status DdpgOptions::Validate() const {
  constexpr size_t kMaxWidth = 1024;
  constexpr size_t kMaxLayers = 8;
  constexpr size_t kMaxReplay = 1000000;
  const auto width_ok = [](size_t width) {
    return width >= 1 && width <= kMaxWidth;
  };
  if (!width_ok(state_dim) || !width_ok(action_dim)) {
    return util::Status::InvalidArgument(
        "state_dim and action_dim must be in [1, 1024]");
  }
  if (actor_hidden.empty() || actor_hidden.size() > kMaxLayers ||
      critic_hidden.size() > kMaxLayers) {
    return util::Status::InvalidArgument(
        "the actor needs 1-8 hidden layers and the critic at most 8");
  }
  if (!std::all_of(actor_hidden.begin(), actor_hidden.end(), width_ok) ||
      !std::all_of(critic_hidden.begin(), critic_hidden.end(), width_ok) ||
      !width_ok(critic_embed)) {
    return util::Status::InvalidArgument(
        "actor_hidden and critic_hidden widths and critic_embed must be in "
        "[1, 1024]");
  }
  if (replay_capacity < 1 || replay_capacity > kMaxReplay) {
    return util::Status::InvalidArgument(
        "replay_capacity must be in [1, 1000000]");
  }
  if (batch_size < 1 || batch_size > replay_capacity) {
    return util::Status::InvalidArgument(
        "batch_size must be in [1, replay_capacity]");
  }
  for (double value : {actor_lr, critic_lr, gamma, tau, dropout_rate,
                       leaky_slope, noise_sigma, noise_theta, noise_decay,
                       min_noise_sigma, grad_clip}) {
    if (!std::isfinite(value)) {
      return util::Status::InvalidArgument("agent options must be finite");
    }
  }
  if (!(dropout_rate >= 0.0 && dropout_rate < 1.0)) {
    return util::Status::InvalidArgument("dropout_rate must be in [0, 1)");
  }
  if (!(grad_clip > 0.0)) {
    return util::Status::InvalidArgument("grad_clip must be > 0");
  }
  return util::Status::Ok();
}

std::string DdpgOptionsDiff(const DdpgOptions& a, const DdpgOptions& b) {
  if (a.state_dim != b.state_dim) return "state_dim";
  if (a.action_dim != b.action_dim) return "action_dim";
  if (a.actor_hidden != b.actor_hidden) return "actor_hidden";
  if (a.critic_embed != b.critic_embed) return "critic_embed";
  if (a.critic_hidden != b.critic_hidden) return "critic_hidden";
  if (a.actor_lr != b.actor_lr) return "actor_lr";
  if (a.critic_lr != b.critic_lr) return "critic_lr";
  if (a.gamma != b.gamma) return "gamma";
  if (a.tau != b.tau) return "tau";
  if (a.batch_size != b.batch_size) return "batch_size";
  if (a.replay_capacity != b.replay_capacity) return "replay_capacity";
  if (a.prioritized_replay != b.prioritized_replay) return "prioritized_replay";
  if (a.dropout_rate != b.dropout_rate) return "dropout_rate";
  if (a.leaky_slope != b.leaky_slope) return "leaky_slope";
  if (a.noise_sigma != b.noise_sigma) return "noise_sigma";
  if (a.noise_theta != b.noise_theta) return "noise_theta";
  if (a.noise_decay != b.noise_decay) return "noise_decay";
  if (a.min_noise_sigma != b.min_noise_sigma) return "min_noise_sigma";
  if (a.grad_clip != b.grad_clip) return "grad_clip";
  if (a.seed != b.seed) return "seed";
  return "";
}

DdpgAgent::DdpgAgent(DdpgOptions options)
    : options_(std::move(options)),
      rng_(options_.seed),
      actor_(BuildActor()),
      critic_(BuildCritic()),
      actor_target_(BuildActor()),
      critic_target_(BuildCritic()),
      noise_(options_.action_dim, options_.noise_theta, options_.noise_sigma,
             util::Rng(options_.seed ^ 0x9E3779B97F4A7C15ULL)) {
  actor_target_.CopyParamsFrom(actor_);
  critic_target_.CopyParamsFrom(critic_);
  actor_opt_ = std::make_unique<nn::Adam>(actor_.Params(), options_.actor_lr);
  critic_opt_ =
      std::make_unique<nn::Adam>(critic_.Params(), options_.critic_lr);
  if (options_.prioritized_replay) {
    replay_ = std::make_unique<PrioritizedReplay>(options_.replay_capacity);
  } else {
    replay_ = std::make_unique<UniformReplay>(options_.replay_capacity);
  }
}

nn::Sequential DdpgAgent::BuildActor() {
  // Paper Table 5 (actor): Input 63 -> FC 128 -> LeakyReLU(0.2) ->
  // BatchNorm -> FC 128 -> Tanh -> Dropout(0.3) -> FC 128 -> Tanh ->
  // FC 64 -> Tanh -> Output #Knobs (sigmoid squash into the normalized
  // knob cube).
  nn::Sequential net;
  CDBTUNE_CHECK(!options_.actor_hidden.empty()) << "actor needs hidden layers";
  size_t in = options_.state_dim;
  for (size_t i = 0; i < options_.actor_hidden.size(); ++i) {
    size_t out = options_.actor_hidden[i];
    net.Add(std::make_unique<nn::Linear>(in, out, rng_));
    if (i == 0) {
      net.Add(std::make_unique<nn::LeakyRelu>(options_.leaky_slope));
      net.Add(std::make_unique<nn::BatchNorm>(out));
    } else {
      net.Add(std::make_unique<nn::Tanh>());
      if (i == 1 && options_.dropout_rate > 0.0) {
        net.Add(std::make_unique<nn::Dropout>(options_.dropout_rate, rng_));
      }
    }
    in = out;
  }
  net.Add(std::make_unique<nn::Linear>(in, options_.action_dim, rng_));
  net.Add(std::make_unique<nn::Sigmoid>());
  return net;
}

nn::Sequential DdpgAgent::BuildCritic() {
  // Paper Table 5 (critic): Input (#Knobs + 63) -> Parallel FC (128 + 128)
  // -> FC 256 -> LeakyReLU(0.2) -> BatchNorm -> FC -> Dropout(0.3) ->
  // FC 64 -> Tanh -> Output 1. Critic learnable parameters initialize
  // Normal(0, 0.01) per Table 4.
  nn::Sequential net;
  net.Add(std::make_unique<nn::ParallelLinear>(
      options_.state_dim, options_.critic_embed, options_.action_dim,
      options_.critic_embed, rng_, nn::InitScheme::kGaussian001));
  size_t in = 2 * options_.critic_embed;
  for (size_t i = 0; i < options_.critic_hidden.size(); ++i) {
    size_t out = options_.critic_hidden[i];
    net.Add(std::make_unique<nn::Linear>(in, out, rng_,
                                         nn::InitScheme::kGaussian001));
    if (i == 0) {
      net.Add(std::make_unique<nn::LeakyRelu>(options_.leaky_slope));
      net.Add(std::make_unique<nn::BatchNorm>(out));
      if (options_.dropout_rate > 0.0) {
        net.Add(std::make_unique<nn::Dropout>(options_.dropout_rate, rng_));
      }
    } else {
      net.Add(std::make_unique<nn::Tanh>());
    }
    in = out;
  }
  net.Add(
      std::make_unique<nn::Linear>(in, 1, rng_, nn::InitScheme::kGaussian001));
  return net;
}

Matrix DdpgAgent::CriticInput(const Matrix& states, const Matrix& actions) {
  return states.ConcatCols(actions);
}

std::vector<double> DdpgAgent::Act(const std::vector<double>& state,
                                   bool explore) {
  return SelectAction(state, explore ? &noise_ : nullptr);
}

std::vector<double> DdpgAgent::SelectAction(const std::vector<double>& state,
                                            ActionNoise* noise) const {
  CDBTUNE_CHECK(state.size() == options_.state_dim) << "state dim mismatch";
  Matrix a = actor_.Infer(Matrix::RowVector(state));
  std::vector<double> action = a.Row(0);
  if (noise != nullptr) {
    std::vector<double> n = noise->Sample();
    CDBTUNE_CHECK_EQ(n.size(), action.size()) << "noise dim mismatch";
    for (size_t i = 0; i < action.size(); ++i) {
      action[i] = std::clamp(action[i] + n[i], 0.0, 1.0);
    }
  }
  return action;
}

void DdpgAgent::Observe(Transition transition) {
  CDBTUNE_CHECK(transition.state.size() == options_.state_dim);
  CDBTUNE_CHECK(transition.action.size() == options_.action_dim);
  CDBTUNE_CHECK(transition.next_state.size() == options_.state_dim);
  replay_->Add(std::move(transition));
}

TrainStats DdpgAgent::TrainStep() {
  TrainStats stats;
  const size_t batch = options_.batch_size;
  if (replay_->size() < batch) return stats;

  SampleBatch sample = replay_->Sample(batch, rng_);
  Matrix states(batch, options_.state_dim);
  Matrix actions(batch, options_.action_dim);
  Matrix next_states(batch, options_.state_dim);
  std::vector<double> rewards(batch);
  std::vector<bool> terminal(batch);
  for (size_t i = 0; i < batch; ++i) {
    const Transition& t = *sample.items[i];
    std::copy(t.state.begin(), t.state.end(),
              states.data() + i * options_.state_dim);
    std::copy(t.action.begin(), t.action.end(),
              actions.data() + i * options_.action_dim);
    std::copy(t.next_state.begin(), t.next_state.end(),
              next_states.data() + i * options_.state_dim);
    rewards[i] = t.reward;
    terminal[i] = t.terminal;
  }

  // ---- Critic update (Algorithm 1, steps 2-6) ---------------------------
  // y_i = r_i + gamma * Q'(s_{i+1}, mu'(s_{i+1})).
  //
  // The target-network pass (actor' -> critic') and the online critic's
  // forward on (s, a) touch disjoint networks and only the latter draws from
  // rng_ (dropout), so they run concurrently on the compute pool; the rng
  // stream and all per-network state advance exactly as in serial order.
  Matrix targets(batch, 1);
  Matrix q;
  critic_.ZeroGrad();
  util::ComputeContext::Get().RunConcurrent(
      {[&] {
         Matrix next_actions = actor_target_.Infer(next_states);
         Matrix next_q =
             critic_target_.Infer(CriticInput(next_states, next_actions));
         for (size_t i = 0; i < batch; ++i) {
           double bootstrap =
               terminal[i] ? 0.0 : options_.gamma * next_q.at(i, 0);
           targets.at(i, 0) = rewards[i] + bootstrap;
         }
       },
       [&] {
         q = critic_.Forward(CriticInput(states, actions), /*training=*/true);
       }});
  // Importance-weighted MSE: grad_i = 2 * w_i * (q_i - y_i) / batch.
  Matrix grad(batch, 1);
  double loss = 0.0;
  std::vector<double> td_errors(batch);
  for (size_t i = 0; i < batch; ++i) {
    double diff = q.at(i, 0) - targets.at(i, 0);
    td_errors[i] = diff;
    double w = sample.weights[i];
    loss += w * diff * diff;
    grad.at(i, 0) = 2.0 * w * diff / static_cast<double>(batch);
  }
  loss /= static_cast<double>(batch);
  critic_.Backward(grad);
  critic_opt_->ClipGradNorm(options_.grad_clip);
  critic_opt_->Step();
  replay_->UpdatePriorities(sample.indices, td_errors);

  // ---- Actor update (Algorithm 1, step 7) -------------------------------
  // Maximize Q(s, mu(s)): push -dQ/da through the actor. The critic is only
  // differentiated *through* here — param_grads=false skips its
  // weight-gradient GEMMs entirely instead of computing and discarding them.
  actor_.ZeroGrad();
  Matrix policy_actions = actor_.Forward(states, /*training=*/true);
  Matrix policy_q = critic_.Forward(CriticInput(states, policy_actions),
                                    /*training=*/false);
  Matrix dq(batch, 1, -1.0 / static_cast<double>(batch));
  Matrix grad_input = critic_.Backward(dq, /*param_grads=*/false);
  Matrix grad_states, grad_actions;
  grad_input.SplitCols(options_.state_dim, &grad_states, &grad_actions);
  actor_.Backward(grad_actions);
  actor_opt_->ClipGradNorm(options_.grad_clip);
  actor_opt_->Step();

  // ---- Target networks ---------------------------------------------------
  actor_target_.SoftUpdateFrom(actor_, options_.tau);
  critic_target_.SoftUpdateFrom(critic_, options_.tau);

  stats.critic_loss = loss;
  stats.actor_objective = policy_q.MeanRows().at(0, 0);
  double td_abs = 0.0;
  for (double e : td_errors) td_abs += std::fabs(e);
  stats.mean_td_error = td_abs / static_cast<double>(batch);
  return stats;
}

void DdpgAgent::DecayNoise() {
  if (noise_.sigma() > options_.min_noise_sigma) {
    noise_.Decay(options_.noise_decay);
  }
}

double DdpgAgent::EstimateQ(const std::vector<double>& state,
                            const std::vector<double>& action) const {
  Matrix s = Matrix::RowVector(state);
  Matrix a = Matrix::RowVector(action);
  return critic_.Infer(CriticInput(s, a)).at(0, 0);
}

void DdpgAgent::AppendChunks(persist::ChunkWriter& writer,
                             const std::string& prefix) const {
  auto net_chunk = [&](const std::string& name, const nn::Sequential& net) {
    persist::Encoder enc;
    net.SaveBinary(enc);
    writer.Add(prefix + name, enc.Release());
  };
  {
    persist::Encoder enc;
    SaveDdpgOptionsBinary(enc, options_);
    writer.Add(prefix + "options", enc.Release());
  }
  {
    persist::Encoder enc;
    enc.WriteString(rng_.SerializeState());
    writer.Add(prefix + "rng", enc.Release());
  }
  net_chunk("actor", actor_);
  net_chunk("critic", critic_);
  net_chunk("actor_target", actor_target_);
  net_chunk("critic_target", critic_target_);
  {
    persist::Encoder enc;
    actor_opt_->SaveBinary(enc);
    writer.Add(prefix + "opt/actor", enc.Release());
  }
  {
    persist::Encoder enc;
    critic_opt_->SaveBinary(enc);
    writer.Add(prefix + "opt/critic", enc.Release());
  }
  {
    persist::Encoder enc;
    replay_->SaveBinary(enc);
    writer.Add(prefix + "replay", enc.Release());
  }
  {
    persist::Encoder enc;
    noise_.SaveBinary(enc);
    writer.Add(prefix + "noise", enc.Release());
  }
}

util::Status DdpgAgent::RestoreFromChunks(const persist::ChunkFile& file,
                                          const std::string& prefix) {
  DdpgOptions saved;
  CDBTUNE_RETURN_IF_ERROR(
      file.Decode(prefix + "options", [&](persist::Decoder& dec) {
        return LoadDdpgOptionsBinary(dec, &saved);
      }));
  // `seed` only names the initial rng/noise streams; the live stream state is
  // restored from dedicated chunks below, so a shared checkpoint may be loaded
  // into agents constructed with any seed. Structural fields stay fatal.
  DdpgOptions expect = options_;
  expect.seed = saved.seed;
  std::string diff = DdpgOptionsDiff(saved, expect);
  if (!diff.empty()) {
    return util::Status::DataLoss(
        "checkpoint agent options differ from this agent's (" + diff +
        "); rebuild the agent from the checkpoint's options chunk first");
  }
  options_.seed = saved.seed;
  CDBTUNE_RETURN_IF_ERROR(
      file.Decode(prefix + "rng", [&](persist::Decoder& dec) {
        std::string state;
        if (!dec.ReadString(&state)) return dec.status();
        if (!rng_.RestoreState(state)) {
          return util::Status::DataLoss("agent rng state malformed");
        }
        return util::Status::Ok();
      }));
  auto net_restore = [&](const std::string& name, nn::Sequential& net) {
    return file.Decode(prefix + name, [&](persist::Decoder& dec) {
      return net.LoadBinary(dec);
    });
  };
  CDBTUNE_RETURN_IF_ERROR(net_restore("actor", actor_));
  CDBTUNE_RETURN_IF_ERROR(net_restore("critic", critic_));
  CDBTUNE_RETURN_IF_ERROR(net_restore("actor_target", actor_target_));
  CDBTUNE_RETURN_IF_ERROR(net_restore("critic_target", critic_target_));
  CDBTUNE_RETURN_IF_ERROR(
      file.Decode(prefix + "opt/actor", [&](persist::Decoder& dec) {
        return actor_opt_->LoadBinary(dec);
      }));
  CDBTUNE_RETURN_IF_ERROR(
      file.Decode(prefix + "opt/critic", [&](persist::Decoder& dec) {
        return critic_opt_->LoadBinary(dec);
      }));
  CDBTUNE_RETURN_IF_ERROR(
      file.Decode(prefix + "replay", [&](persist::Decoder& dec) {
        return replay_->LoadBinary(dec);
      }));
  return file.Decode(prefix + "noise", [&](persist::Decoder& dec) {
    return noise_.LoadBinary(dec);
  });
}

void DdpgAgent::CloneWeightsFrom(DdpgAgent& other) {
  // Full-state copy: BatchNorm running statistics must come along or the
  // clone's eval-mode policy would differ from the source's.
  actor_.CopyStateFrom(other.actor_);
  critic_.CopyStateFrom(other.critic_);
  actor_target_.CopyStateFrom(other.actor_target_);
  critic_target_.CopyStateFrom(other.critic_target_);
}

size_t DdpgAgent::NumParameters() {
  return actor_.NumParameters() + critic_.NumParameters();
}

}  // namespace cdbtune::rl
