#include "nn/layer.h"

#include <cmath>

#include "util/check.h"

namespace cdbtune::nn {

void SaveMatrixBinary(persist::Encoder& enc, const Matrix& m) {
  enc.WriteU64(m.rows());
  enc.WriteU64(m.cols());
  const double* data = m.data();
  enc.WriteDoubles(data, m.size());
}

util::Status LoadMatrixBinary(persist::Decoder& dec, Matrix* into) {
  uint64_t rows = 0, cols = 0;
  if (!dec.ReadU64(&rows) || !dec.ReadU64(&cols)) return dec.status();
  // Compared before any arithmetic, so no header can overflow a size.
  if (rows != into->rows() || cols != into->cols()) {
    return util::Status::DataLoss(
        "checkpoint matrix is " + std::to_string(rows) + "x" +
        std::to_string(cols) + ", expected " + std::to_string(into->rows()) +
        "x" + std::to_string(into->cols()));
  }
  if (!dec.ReadDoubles(into->data(), into->size())) return dec.status();
  return util::Status::Ok();
}

void Layer::SaveBinary(persist::Encoder& enc) const {
  for (Parameter* p : const_cast<Layer*>(this)->Params()) {
    SaveMatrixBinary(enc, p->value);
  }
}

util::Status Layer::LoadBinary(persist::Decoder& dec) {
  for (Parameter* p : Params()) {
    CDBTUNE_RETURN_IF_ERROR(LoadMatrixBinary(dec, &p->value));
  }
  return util::Status::Ok();
}

Linear::Linear(size_t in_features, size_t out_features, util::Rng& rng,
               InitScheme init) {
  Matrix w;
  switch (init) {
    case InitScheme::kUniform01:
      w = Matrix::RandomUniform(in_features, out_features, -0.1, 0.1, rng);
      break;
    case InitScheme::kGaussian001:
      w = Matrix::RandomGaussian(in_features, out_features, 0.0, 0.01, rng);
      break;
    case InitScheme::kXavierUniform: {
      double bound =
          std::sqrt(6.0 / static_cast<double>(in_features + out_features));
      w = Matrix::RandomUniform(in_features, out_features, -bound, bound, rng);
      break;
    }
    case InitScheme::kZero:
      w = Matrix(in_features, out_features);
      break;
  }
  weight_ = Parameter(std::move(w), "weight");
  bias_ = Parameter(Matrix(1, out_features), "bias");
}

Matrix Linear::Forward(const Matrix& input, bool /*training*/) {
  input_cache_ = input;
  return Infer(input);
}

Matrix Linear::Infer(const Matrix& input) const {
  CDBTUNE_DCHECK_EQ(input.cols(), in_features());
  return input.MatMulBias(weight_.value, bias_.value);
}

Matrix Linear::Backward(const Matrix& grad_output, bool param_grads) {
  CDBTUNE_CHECK(!input_cache_.empty()) << "Backward before Forward";
  CDBTUNE_DCHECK_EQ(grad_output.cols(), out_features());
  CDBTUNE_DCHECK_EQ(grad_output.rows(), input_cache_.rows());
  // Fused kernels: dW = input^T * g accumulated straight into the grad
  // buffer and dX = g * W^T, without materializing either transpose or a
  // dW temporary.
  if (param_grads) {
    input_cache_.MatMulTransposedAAccumulate(grad_output, &weight_.grad);
    bias_.grad.AddInPlace(grad_output.SumRows());
  }
  return grad_output.MatMulTransposedB(weight_.value);
}

namespace {

/// The one rectifier behind Relu and LeakyRelu: y = x where x > 0, else
/// `negative(x)`. A non-null `mask` also receives the gradient factor
/// (1.0 where x > 0, else `negative_slope`) that Backward multiplies by.
template <typename Negative>
Matrix Rectify(const Matrix& input, Negative negative, double negative_slope,
               Matrix* mask) {
  Matrix out(input.rows(), input.cols());
  double* m = nullptr;
  if (mask != nullptr) {
    if (!mask->SameShape(input)) *mask = Matrix(input.rows(), input.cols());
    m = mask->data();
  }
  const double* x = input.data();
  double* y = out.data();
  const size_t n = input.size();
  for (size_t i = 0; i < n; ++i) {
    const bool positive = x[i] > 0.0;
    if (m != nullptr) m[i] = positive ? 1.0 : negative_slope;
    y[i] = positive ? x[i] : negative(x[i]);
  }
  return out;
}

Matrix ReluApply(const Matrix& input, Matrix* mask) {
  return Rectify(input, [](double) { return 0.0; }, 0.0, mask);
}

Matrix LeakyReluApply(const Matrix& input, double slope, Matrix* mask) {
  return Rectify(input, [slope](double x) { return slope * x; }, slope, mask);
}

}  // namespace

Matrix Relu::Forward(const Matrix& input, bool /*training*/) {
  return ReluApply(input, &mask_);
}

Matrix Relu::Infer(const Matrix& input) const {
  return ReluApply(input, nullptr);
}

Matrix Relu::Backward(const Matrix& grad_output, bool /*param_grads*/) {
  CDBTUNE_DCHECK(grad_output.SameShape(mask_))
      << "Relu gradient shape does not match the cached forward mask";
  Matrix grad = grad_output;
  grad.MulInPlace(mask_);
  return grad;
}

Matrix LeakyRelu::Forward(const Matrix& input, bool /*training*/) {
  return LeakyReluApply(input, slope_, &mask_);
}

Matrix LeakyRelu::Infer(const Matrix& input) const {
  return LeakyReluApply(input, slope_, nullptr);
}

Matrix LeakyRelu::Backward(const Matrix& grad_output, bool /*param_grads*/) {
  CDBTUNE_DCHECK(grad_output.SameShape(mask_))
      << "LeakyRelu gradient shape does not match the cached forward mask";
  Matrix grad = grad_output;
  grad.MulInPlace(mask_);
  return grad;
}

Matrix Tanh::Forward(const Matrix& input, bool /*training*/) {
  output_cache_ = Infer(input);
  return output_cache_;
}

Matrix Tanh::Infer(const Matrix& input) const {
  return input.Map([](double x) { return std::tanh(x); });
}

Matrix Tanh::Backward(const Matrix& grad_output, bool /*param_grads*/) {
  CDBTUNE_DCHECK(grad_output.SameShape(output_cache_))
      << "Tanh gradient shape does not match the cached forward output";
  Matrix grad = grad_output;
  double* g = grad.data();
  const double* y = output_cache_.data();
  const size_t n = grad.size();
  for (size_t i = 0; i < n; ++i) g[i] *= 1.0 - y[i] * y[i];
  return grad;
}

Matrix Sigmoid::Forward(const Matrix& input, bool /*training*/) {
  output_cache_ = Infer(input);
  return output_cache_;
}

Matrix Sigmoid::Infer(const Matrix& input) const {
  return input.Map([](double x) { return 1.0 / (1.0 + std::exp(-x)); });
}

Matrix Sigmoid::Backward(const Matrix& grad_output, bool /*param_grads*/) {
  CDBTUNE_DCHECK(grad_output.SameShape(output_cache_))
      << "Sigmoid gradient shape does not match the cached forward output";
  Matrix grad = grad_output;
  double* g = grad.data();
  const double* y = output_cache_.data();
  const size_t n = grad.size();
  for (size_t i = 0; i < n; ++i) g[i] *= y[i] * (1.0 - y[i]);
  return grad;
}

BatchNorm::BatchNorm(size_t features, double momentum, double epsilon)
    : momentum_(momentum),
      epsilon_(epsilon),
      gamma_(Matrix(1, features, 1.0), "gamma"),
      beta_(Matrix(1, features, 0.0), "beta"),
      running_mean_(1, features, 0.0),
      running_var_(1, features, 1.0) {}

Matrix BatchNorm::Forward(const Matrix& input, bool training) {
  const size_t n = input.rows();
  const size_t f = input.cols();
  // In eval mode (or batch of one) the backward pass treats mean/var as
  // constants, which the cached x_hat_/std_inv_ already encode.
  training_backward_ = training && n > 1;
  if (!training_backward_) {
    return Normalize(input, running_mean_, running_var_, &std_inv_, &x_hat_);
  }

  const Matrix mean = input.MeanRows();
  Matrix var(1, f);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < f; ++c) {
      double d = input.at(r, c) - mean.at(0, c);
      var.at(0, c) += d * d;
    }
  }
  var.Scale(1.0 / static_cast<double>(n));
  Matrix out = Normalize(input, mean, var, &std_inv_, &x_hat_);
  // Update running statistics (exponential moving average).
  for (size_t c = 0; c < f; ++c) {
    running_mean_.at(0, c) = (1.0 - momentum_) * running_mean_.at(0, c) +
                             momentum_ * mean.at(0, c);
    running_var_.at(0, c) =
        (1.0 - momentum_) * running_var_.at(0, c) + momentum_ * var.at(0, c);
  }
  return out;
}

Matrix BatchNorm::Infer(const Matrix& input) const {
  Matrix std_inv;
  return Normalize(input, running_mean_, running_var_, &std_inv, nullptr);
}

Matrix BatchNorm::Normalize(const Matrix& input, const Matrix& mean,
                            const Matrix& var, Matrix* std_inv,
                            Matrix* x_hat) const {
  const size_t n = input.rows();
  const size_t f = input.cols();
  CDBTUNE_CHECK(f == gamma_.value.cols())
      << "BatchNorm feature mismatch: " << f << " vs " << gamma_.value.cols();

  *std_inv = Matrix(1, f);
  for (size_t c = 0; c < f; ++c) {
    std_inv->at(0, c) = 1.0 / std::sqrt(var.at(0, c) + epsilon_);
  }

  if (x_hat != nullptr) *x_hat = Matrix(n, f);
  Matrix out(n, f);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < f; ++c) {
      double xh = (input.at(r, c) - mean.at(0, c)) * std_inv->at(0, c);
      if (x_hat != nullptr) x_hat->at(r, c) = xh;
      out.at(r, c) = gamma_.value.at(0, c) * xh + beta_.value.at(0, c);
    }
  }
  return out;
}

Matrix BatchNorm::Backward(const Matrix& grad_output, bool param_grads) {
  const size_t n = grad_output.rows();
  const size_t f = grad_output.cols();
  CDBTUNE_CHECK(x_hat_.rows() == n && x_hat_.cols() == f)
      << "BatchNorm Backward shape mismatch";

  if (param_grads) {
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < f; ++c) {
        gamma_.grad.at(0, c) += grad_output.at(r, c) * x_hat_.at(r, c);
        beta_.grad.at(0, c) += grad_output.at(r, c);
      }
    }
  }

  Matrix grad_in(n, f);
  if (!training_backward_) {
    // Eval statistics are constants: dx = g * gamma * std_inv.
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < f; ++c) {
        grad_in.at(r, c) =
            grad_output.at(r, c) * gamma_.value.at(0, c) * std_inv_.at(0, c);
      }
    }
    return grad_in;
  }

  // Standard batch-norm backward: for each feature c,
  // dx = (gamma * std_inv / n) * (n*g - sum(g) - x_hat * sum(g*x_hat)).
  for (size_t c = 0; c < f; ++c) {
    double sum_g = 0.0;
    double sum_gx = 0.0;
    for (size_t r = 0; r < n; ++r) {
      sum_g += grad_output.at(r, c);
      sum_gx += grad_output.at(r, c) * x_hat_.at(r, c);
    }
    double scale = gamma_.value.at(0, c) * std_inv_.at(0, c) /
                   static_cast<double>(n);
    for (size_t r = 0; r < n; ++r) {
      grad_in.at(r, c) =
          scale * (static_cast<double>(n) * grad_output.at(r, c) - sum_g -
                   x_hat_.at(r, c) * sum_gx);
    }
  }
  return grad_in;
}

void BatchNorm::SaveBinary(persist::Encoder& enc) const {
  Layer::SaveBinary(enc);
  SaveMatrixBinary(enc, running_mean_);
  SaveMatrixBinary(enc, running_var_);
}

util::Status BatchNorm::LoadBinary(persist::Decoder& dec) {
  CDBTUNE_RETURN_IF_ERROR(Layer::LoadBinary(dec));
  CDBTUNE_RETURN_IF_ERROR(LoadMatrixBinary(dec, &running_mean_));
  return LoadMatrixBinary(dec, &running_var_);
}

ParallelLinear::ParallelLinear(size_t left_in, size_t left_out,
                               size_t right_in, size_t right_out,
                               util::Rng& rng, InitScheme init)
    : left_in_(left_in),
      left_out_(left_out),
      left_(left_in, left_out, rng, init),
      right_(right_in, right_out, rng, init) {}

namespace {

/// ParallelLinear's one body for Forward and Infer: splits `input` at
/// `left_in`, runs `apply(linear, half)` on each side and concatenates.
template <typename LinearT, typename Apply>
Matrix ApplySplit(const Matrix& input, size_t left_in, LinearT& left,
                  LinearT& right, Apply apply) {
  Matrix left_x, right_x;
  input.SplitCols(left_in, &left_x, &right_x);
  Matrix left_y = apply(left, left_x);
  Matrix right_y = apply(right, right_x);
  return left_y.ConcatCols(right_y);
}

}  // namespace

Matrix ParallelLinear::Forward(const Matrix& input, bool training) {
  return ApplySplit(input, left_in_, left_, right_,
                    [training](Linear& linear, const Matrix& x) {
                      return linear.Forward(x, training);
                    });
}

Matrix ParallelLinear::Infer(const Matrix& input) const {
  return ApplySplit(
      input, left_in_, left_, right_,
      [](const Linear& linear, const Matrix& x) { return linear.Infer(x); });
}

Matrix ParallelLinear::Backward(const Matrix& grad_output, bool param_grads) {
  Matrix left_g, right_g;
  grad_output.SplitCols(left_out_, &left_g, &right_g);
  Matrix left_dx = left_.Backward(left_g, param_grads);
  Matrix right_dx = right_.Backward(right_g, param_grads);
  return left_dx.ConcatCols(right_dx);
}

std::vector<Parameter*> ParallelLinear::Params() {
  std::vector<Parameter*> out = left_.Params();
  for (Parameter* p : right_.Params()) out.push_back(p);
  return out;
}

Dropout::Dropout(double rate, util::Rng& rng) : rate_(rate), rng_(&rng) {
  CDBTUNE_CHECK(rate >= 0.0 && rate < 1.0) << "dropout rate out of range";
}

Matrix Dropout::Forward(const Matrix& input, bool training) {
  if (!training || rate_ == 0.0) {
    mask_valid_ = false;
    return Infer(input);
  }
  const double keep = 1.0 - rate_;
  mask_ = Matrix(input.rows(), input.cols());
  Matrix out = input;
  for (size_t r = 0; r < input.rows(); ++r) {
    for (size_t c = 0; c < input.cols(); ++c) {
      double m = rng_->Bernoulli(keep) ? 1.0 / keep : 0.0;
      mask_.at(r, c) = m;
      out.at(r, c) *= m;
    }
  }
  mask_valid_ = true;
  return out;
}

Matrix Dropout::Infer(const Matrix& input) const { return input; }

Matrix Dropout::Backward(const Matrix& grad_output, bool /*param_grads*/) {
  if (!mask_valid_) return grad_output;
  CDBTUNE_DCHECK(grad_output.SameShape(mask_))
      << "Dropout gradient shape does not match the cached mask";
  Matrix grad = grad_output;
  grad.MulInPlace(mask_);
  return grad;
}

}  // namespace cdbtune::nn
