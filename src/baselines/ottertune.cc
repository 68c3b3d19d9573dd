#include "baselines/ottertune.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "nn/optimizer.h"
#include "safety/apply.h"
#include "nn/sequential.h"
#include "util/check.h"
#include "util/logging.h"

namespace cdbtune::baselines {

std::vector<double> WorkloadFeatures(const workload::WorkloadSpec& spec) {
  return {
      spec.read_fraction,
      spec.scan_fraction,
      spec.insert_fraction,
      spec.access_skew,
      spec.sort_heavy_fraction,
      std::log1p(spec.working_set_gb),
      std::log1p(spec.data_size_gb),
      std::log1p(static_cast<double>(spec.client_threads)),
      std::log1p(spec.ops_per_txn),
  };
}

OtterTune::OtterTune(env::DbInterface* db, knobs::KnobSpace space,
                     OtterTuneOptions options)
    : db_(db),
      space_(std::move(space)),
      options_(std::move(options)),
      rng_(options_.seed) {
  CDBTUNE_CHECK(db_ != nullptr);
  if (options_.gp.length_scale <= 0.0) {
    options_.gp.length_scale =
        0.35 * std::sqrt(static_cast<double>(space_.action_dim()));
  }
}

void OtterTune::SetDatabase(env::DbInterface* db) {
  CDBTUNE_CHECK(db != nullptr);
  db_ = db;
}

void OtterTune::AddObservation(Observation observation) {
  CDBTUNE_CHECK(observation.action.size() == space_.action_dim())
      << "observation action dim mismatch";
  repository_.push_back(std::move(observation));
}

void OtterTune::CollectSamples(const workload::WorkloadSpec& spec, int count) {
  const knobs::Config base = db_->registry().DefaultConfig();
  // Baseline performance of the defaults, to score samples against.
  db_->Reset();
  auto baseline = db_->RunStress(spec, options_.stress_duration_s);
  if (!baseline.ok()) return;
  const double t0 = baseline.value().external.throughput_tps;
  const double l0 = baseline.value().external.latency_p99_ms;

  for (int i = 0; i < count; ++i) {
    std::vector<double> action(space_.action_dim());
    for (double& a : action) a = rng_.Uniform();
    knobs::Config config = space_.ActionToConfig(action, base);
    Observation obs;
    obs.action = action;
    obs.workload_features = WorkloadFeatures(spec);
    obs.workload_name = spec.name;
    if (!safety::ApplyConfig(*db_, config).ok()) {
      obs.score = -1.0;  // Crashed configuration: strongly undesirable.
      AddObservation(std::move(obs));
      continue;
    }
    auto result = db_->RunStress(spec, options_.stress_duration_s);
    if (!result.ok()) continue;
    obs.throughput = result.value().external.throughput_tps;
    obs.latency = result.value().external.latency_p99_ms;
    obs.score = 0.5 * (obs.throughput / t0) + 0.5 * (l0 / obs.latency);
    AddObservation(std::move(obs));
  }
  db_->Reset();
}

std::vector<size_t> OtterTune::RankKnobs() {
  CDBTUNE_CHECK(!repository_.empty()) << "RankKnobs needs observations";
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (const Observation& obs : repository_) {
    x.push_back(obs.action);
    y.push_back(obs.score);
  }
  Lasso lasso;
  lasso.Fit(x, y);
  return lasso.RankFeatures();
}

std::vector<const Observation*> OtterTune::MapWorkload(
    const std::vector<double>& features) const {
  // Nearest stored workload by feature distance; all its observations seed
  // the surrogate.
  double best_distance = std::numeric_limits<double>::infinity();
  std::string best_name;
  for (const Observation& obs : repository_) {
    double d = 0.0;
    for (size_t i = 0; i < features.size(); ++i) {
      double diff = features[i] - obs.workload_features[i];
      d += diff * diff;
    }
    if (d < best_distance) {
      best_distance = d;
      best_name = obs.workload_name;
    }
  }
  std::vector<const Observation*> mapped;
  for (const Observation& obs : repository_) {
    if (obs.workload_name == best_name) mapped.push_back(&obs);
  }
  return mapped;
}

std::vector<double> OtterTune::ScoreCandidates(
    const std::vector<std::vector<double>>& train_x,
    const std::vector<double>& train_y,
    const std::vector<std::vector<double>>& candidates, double best_score) {
  std::vector<double> scores(candidates.size(),
                             -std::numeric_limits<double>::infinity());
  if (options_.use_dnn) {
    // "OtterTune with deep learning": an MLP regressor on the same data.
    const size_t d = space_.action_dim();
    util::Rng net_rng(options_.seed ^ 0x51ED2701);
    nn::Sequential net;
    net.Add(std::make_unique<nn::Linear>(d, 64, net_rng,
                                         nn::InitScheme::kXavierUniform));
    net.Add(std::make_unique<nn::Relu>());
    net.Add(std::make_unique<nn::Linear>(64, 32, net_rng,
                                         nn::InitScheme::kXavierUniform));
    net.Add(std::make_unique<nn::Relu>());
    net.Add(std::make_unique<nn::Linear>(32, 1, net_rng,
                                         nn::InitScheme::kXavierUniform));
    nn::Adam opt(net.Params(), 3e-3);
    nn::Matrix x(train_x.size(), d);
    nn::Matrix y(train_x.size(), 1);
    for (size_t i = 0; i < train_x.size(); ++i) {
      x.SetRow(i, train_x[i]);
      y.at(i, 0) = train_y[i];
    }
    for (int epoch = 0; epoch < options_.dnn_epochs; ++epoch) {
      net.ZeroGrad();
      nn::Matrix pred = net.Forward(x, /*training=*/true);
      nn::Matrix grad;
      nn::MseLoss(pred, y, &grad);
      net.Backward(grad);
      opt.Step();
    }
    for (size_t c = 0; c < candidates.size(); ++c) {
      scores[c] = net.Infer(nn::Matrix::RowVector(candidates[c])).at(0, 0);
    }
    return scores;
  }

  GaussianProcess gp(options_.gp);
  const std::vector<std::vector<double>>* fit_x = &train_x;
  const std::vector<double>* fit_y = &train_y;
  std::vector<std::vector<double>> sub_x;
  std::vector<double> sub_y;
  if (train_x.size() > options_.gp_max_samples) {
    // Keep the best quarter plus a random slice of the rest.
    std::vector<size_t> order(train_x.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return train_y[a] > train_y[b]; });
    size_t keep_best = options_.gp_max_samples / 4;
    std::vector<size_t> chosen(order.begin(),
                               order.begin() + static_cast<long>(keep_best));
    std::vector<size_t> rest(order.begin() + static_cast<long>(keep_best),
                             order.end());
    rng_.Shuffle(rest);
    chosen.insert(chosen.end(), rest.begin(),
                  rest.begin() + static_cast<long>(options_.gp_max_samples -
                                                   keep_best));
    for (size_t idx : chosen) {
      sub_x.push_back(train_x[idx]);
      sub_y.push_back(train_y[idx]);
    }
    fit_x = &sub_x;
    fit_y = &sub_y;
  }
  util::Status fit = gp.Fit(*fit_x, *fit_y);
  if (!fit.ok()) {
    CDBTUNE_LOG(Warning) << "GP fit failed: " << fit.ToString();
    return scores;
  }
  for (size_t c = 0; c < candidates.size(); ++c) {
    (void)best_score;
    scores[c] = gp.Ucb(candidates[c], options_.ucb_kappa);
  }
  return scores;
}

BaselineResult OtterTune::Tune(const workload::WorkloadSpec& spec, int steps) {
  if (steps <= 0) steps = options_.online_steps;
  BaselineResult out;
  const knobs::Config base = db_->current_config();

  auto baseline = db_->RunStress(spec, options_.stress_duration_s);
  if (!baseline.ok()) return out;
  out.initial.throughput = baseline.value().external.throughput_tps;
  out.initial.latency = baseline.value().external.latency_p99_ms;
  out.best = out.initial;
  out.best_config = base;
  double best_score = 1.0;  // Score of the initial configuration.

  // Stage 1: workload mapping.
  std::vector<double> features = WorkloadFeatures(spec);
  std::vector<const Observation*> mapped = MapWorkload(features);

  std::vector<std::vector<double>> train_x;
  std::vector<double> train_y;
  for (const Observation* obs : mapped) {
    train_x.push_back(obs->action);
    train_y.push_back(obs->score);
  }
  // The incumbent starts at the best configuration the mapped workload's
  // history knows about; candidate perturbations concentrate there.
  std::vector<double> best_action = space_.ConfigToAction(out.best_config);
  double best_known = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < train_x.size(); ++i) {
    if (train_y[i] > best_known) {
      best_known = train_y[i];
      best_action = train_x[i];
    }
  }

  for (int step = 1; step <= steps; ++step) {
    // Candidates: uniform exploration plus local perturbations of the best
    // known action (OtterTune's gradient-free search around the incumbent).
    std::vector<std::vector<double>> candidates;
    candidates.reserve(static_cast<size_t>(options_.candidate_count));
    for (int c = 0; c < options_.candidate_count; ++c) {
      std::vector<double> a(space_.action_dim());
      if (c % 2 == 0) {
        for (double& v : a) v = rng_.Uniform();
      } else {
        for (size_t i = 0; i < a.size(); ++i) {
          a[i] = std::clamp(best_action[i] + rng_.Gaussian(0.0, 0.1), 0.0, 1.0);
        }
      }
      candidates.push_back(std::move(a));
    }

    std::vector<double> acq;
    if (!train_x.empty()) {
      acq = ScoreCandidates(train_x, train_y, candidates, best_score);
    } else {
      acq.assign(candidates.size(), 0.0);  // No data: arbitrary pick.
    }
    size_t pick = 0;
    for (size_t c = 1; c < candidates.size(); ++c) {
      if (acq[c] > acq[pick]) pick = c;
    }

    const std::vector<double>& action = candidates[pick];
    knobs::Config config = space_.ActionToConfig(action, base);
    Observation obs;
    obs.action = action;
    obs.workload_features = features;
    obs.workload_name = spec.name;

    double score;
    if (!safety::ApplyConfig(*db_, config).ok()) {
      ++out.crashes;
      score = -1.0;
      out.step_throughput.push_back(0.0);
    } else {
      auto result = db_->RunStress(spec, options_.stress_duration_s);
      if (!result.ok()) break;
      obs.throughput = result.value().external.throughput_tps;
      obs.latency = result.value().external.latency_p99_ms;
      score = 0.5 * (obs.throughput / out.initial.throughput) +
              0.5 * (out.initial.latency / obs.latency);
      out.step_throughput.push_back(obs.throughput);
      if (score > best_score) {
        best_score = score;
        out.best.throughput = obs.throughput;
        out.best.latency = obs.latency;
        out.best_config = db_->current_config();
      }
      if (score > best_known) {
        best_known = score;
        best_action = action;
      }
    }
    obs.score = score;
    train_x.push_back(action);
    train_y.push_back(score);
    AddObservation(std::move(obs));
    out.steps = step;
  }

  // Leave the instance on the best configuration found.
  util::Status final_deploy = safety::ApplyConfig(*db_, out.best_config);
  if (!final_deploy.ok()) {
    CDBTUNE_LOG(Warning) << "OtterTune final deploy failed: "
                         << final_deploy.ToString();
  }
  return out;
}

}  // namespace cdbtune::baselines
