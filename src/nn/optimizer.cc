#include "nn/optimizer.h"

#include <cmath>

#include "util/check.h"

namespace cdbtune::nn {
namespace {

void SaveMoments(persist::Encoder& enc, const std::vector<Matrix>& moments) {
  enc.WriteU32(static_cast<uint32_t>(moments.size()));
  for (const Matrix& m : moments) SaveMatrixBinary(enc, m);
}

util::Status LoadMoments(persist::Decoder& dec, std::vector<Matrix>* moments) {
  uint32_t count = 0;
  if (!dec.ReadU32(&count)) return dec.status();
  if (count != moments->size()) {
    return util::Status::DataLoss("optimizer moment count mismatch: file " +
                                  std::to_string(count) + " vs live " +
                                  std::to_string(moments->size()));
  }
  for (Matrix& slot : *moments) {
    Matrix loaded;
    CDBTUNE_RETURN_IF_ERROR(LoadMatrixBinary(dec, &loaded));
    if (!loaded.SameShape(slot)) {
      return util::Status::DataLoss("optimizer moment shape mismatch");
    }
    slot = std::move(loaded);
  }
  return util::Status::Ok();
}

}  // namespace

Adam::Adam(std::vector<Parameter*> params, double learning_rate, double beta1,
           double beta2, double epsilon)
    : params_(std::move(params)),
      learning_rate_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adam::ClipGradNorm(double max_norm) {
  CDBTUNE_CHECK(max_norm > 0.0) << "max_norm must be positive";
  double sq = 0.0;
  for (Parameter* p : params_) {
    const double* g = p->grad.data();
    const size_t n = p->grad.size();
    for (size_t i = 0; i < n; ++i) sq += g[i] * g[i];
  }
  double norm = std::sqrt(sq);
  if (norm <= max_norm || norm == 0.0) return;
  double scale = max_norm / norm;
  for (Parameter* p : params_) p->grad.Scale(scale);
}

void Adam::SaveBinary(persist::Encoder& enc) const {
  enc.WriteDouble(learning_rate_);
  enc.WriteDouble(beta1_);
  enc.WriteDouble(beta2_);
  enc.WriteDouble(epsilon_);
  enc.WriteI64(step_);
  SaveMoments(enc, m_);
  SaveMoments(enc, v_);
}

util::Status Adam::LoadBinary(persist::Decoder& dec) {
  int64_t step = 0;
  if (!dec.ReadDouble(&learning_rate_) || !dec.ReadDouble(&beta1_) ||
      !dec.ReadDouble(&beta2_) || !dec.ReadDouble(&epsilon_) ||
      !dec.ReadI64(&step)) {
    return dec.status();
  }
  step_ = static_cast<long>(step);
  CDBTUNE_RETURN_IF_ERROR(LoadMoments(dec, &m_));
  return LoadMoments(dec, &v_);
}

void Adam::Step() {
  ++step_;
  // Bias corrections hoisted to reciprocal multiplies: the loop body keeps
  // one sqrt and one divide per element, which GCC turns into packed
  // sqrtpd/divpd over the flat buffers.
  const double inv_bc1 = 1.0 / (1.0 - std::pow(beta1_, static_cast<double>(step_)));
  const double inv_bc2 = 1.0 / (1.0 - std::pow(beta2_, static_cast<double>(step_)));
  const double one_minus_b1 = 1.0 - beta1_;
  const double one_minus_b2 = 1.0 - beta2_;
  for (size_t i = 0; i < params_.size(); ++i) {
    double* __restrict__ value = params_[i]->value.data();
    const double* __restrict__ grad = params_[i]->grad.data();
    double* __restrict__ m = m_[i].data();
    double* __restrict__ v = v_[i].data();
    const size_t n = params_[i]->value.size();
    for (size_t j = 0; j < n; ++j) {
      const double g = grad[j];
      m[j] = beta1_ * m[j] + one_minus_b1 * g;
      v[j] = beta2_ * v[j] + one_minus_b2 * g * g;
      const double m_hat = m[j] * inv_bc1;
      const double v_hat = v[j] * inv_bc2;
      value[j] -= learning_rate_ * m_hat / (std::sqrt(v_hat) + epsilon_);
    }
  }
}

}  // namespace cdbtune::nn
