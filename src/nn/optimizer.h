#ifndef CDBTUNE_NN_OPTIMIZER_H_
#define CDBTUNE_NN_OPTIMIZER_H_

#include <vector>

#include "nn/layer.h"
#include "persist/encoding.h"
#include "util/status.h"

namespace cdbtune::nn {

/// Adam (Kingma & Ba) with bias correction over a fixed list of parameters.
/// The list is bound at construction (typically `network.Params()`);
/// parameters must outlive the optimizer.
class Adam {
 public:
  Adam(std::vector<Parameter*> params, double learning_rate,
       double beta1 = 0.9, double beta2 = 0.999, double epsilon = 1e-8);

  /// Applies one update using the gradients currently accumulated in each
  /// parameter, then leaves gradients untouched (call ZeroGrad separately).
  void Step();

  /// Clips the global gradient norm to `max_norm` before Step(); guards the
  /// critic against reward spikes (e.g., the large negative crash reward in
  /// Section 5.2.3).
  void ClipGradNorm(double max_norm);

  /// Bit-exact serialization of the optimizer state (learning rate, betas,
  /// epsilon, step count and per-parameter moments) for the checkpoint
  /// subsystem. A resumed Adam must continue its bias-correction schedule
  /// exactly, or load-then-train diverges from never-saved.
  void SaveBinary(persist::Encoder& enc) const;
  util::Status LoadBinary(persist::Decoder& dec);

 private:
  std::vector<Parameter*> params_;
  double learning_rate_;  // Paper Table 4: alpha = 0.001.
  double beta1_;
  double beta2_;
  double epsilon_;
  long step_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace cdbtune::nn

#endif  // CDBTUNE_NN_OPTIMIZER_H_
