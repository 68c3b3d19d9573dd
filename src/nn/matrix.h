#ifndef CDBTUNE_NN_MATRIX_H_
#define CDBTUNE_NN_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <vector>

#include "util/random.h"

namespace cdbtune::nn {

/// Dense row-major 2D matrix of doubles — the only tensor type the NN
/// library needs. A batch of N state vectors of dimension D is an N x D
/// matrix; a Linear layer's weight is in_features x out_features.
///
/// Matmul entry points dispatch to the SIMD microkernel tier selected at
/// runtime (nn/simd/dispatch.h: scalar / AVX2 / AVX-512, overridable via
/// CDBTUNE_SIMD) and split row ranges onto util::ComputeContext's pool
/// above a flop threshold. Each output element is accumulated in a fixed
/// order by exactly one thread, and every tier implements the same
/// reference accumulation semantics (nn/simd/gemm.h), so results are
/// bitwise identical at any thread count AND any dispatch tier (the
/// determinism contract in DESIGN.md "Parallelism & kernels").
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from nested initializer lists: Matrix m = {{1, 2}, {3, 4}};
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Wraps a single vector as a 1 x N row matrix.
  static Matrix RowVector(const std::vector<double>& values);

  /// Fills with IID draws. Used for weight init (paper Table 4: weights
  /// Uniform(-0.1, 0.1), learnable critic params Normal(0, 0.01)).
  static Matrix RandomUniform(size_t rows, size_t cols, double lo, double hi,
                              util::Rng& rng);
  static Matrix RandomGaussian(size_t rows, size_t cols, double mean,
                               double stddev, util::Rng& rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& at(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double at(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Extracts row `r` as a plain vector (e.g., one action from a batch).
  std::vector<double> Row(size_t r) const;
  void SetRow(size_t r, const std::vector<double>& values);

  // --- Linear algebra ---------------------------------------------------

  /// Matrix product this(NxK) * other(KxM) -> NxM.
  Matrix MatMul(const Matrix& other) const;

  /// Fused this(NxK) * other(KxM) + bias(1xM) broadcast to every row:
  /// the Linear-forward path. Seeds the output with the bias and
  /// accumulates the product on top, saving a full output sweep versus
  /// MatMul + AddRowBroadcast.
  Matrix MatMulBias(const Matrix& other, const Matrix& bias) const;

  /// Fused this^T * other: this(NxK), other(NxM) -> KxM, without
  /// materializing the transpose. Backprop weight gradients
  /// (input^T * grad_output) hit this kernel every minibatch.
  Matrix MatMulTransposedA(const Matrix& other) const;

  /// MatMulTransposedA accumulated into an existing KxM matrix (`*acc +=
  /// this^T * other`): the weight-gradient path, which adds into the
  /// parameter's grad buffer without a temporary.
  void MatMulTransposedAAccumulate(const Matrix& other, Matrix* acc) const;

  /// Fused this * other^T: this(NxK), other(MxK) -> NxM. Each output is a
  /// dot product of two contiguous rows — the input-gradient kernel
  /// (grad_output * weight^T).
  Matrix MatMulTransposedB(const Matrix& other) const;

  Matrix Transposed() const;

  // --- Elementwise ------------------------------------------------------

  Matrix& AddInPlace(const Matrix& other);
  Matrix& SubInPlace(const Matrix& other);
  Matrix& MulInPlace(const Matrix& other);  // Hadamard product.
  Matrix& Scale(double factor);

  /// Adds a 1 x cols row (bias broadcast) to every row.
  Matrix& AddRowBroadcast(const Matrix& row);

  /// Returns a new matrix with `fn` applied to every element. Templated so
  /// activation lambdas inline into the loop instead of paying a
  /// std::function indirection per element.
  template <typename Fn>
  Matrix Map(Fn&& fn) const {
    Matrix out(rows_, cols_);
    const double* src = data_.data();
    double* dst = out.data_.data();
    const size_t n = data_.size();
    for (size_t i = 0; i < n; ++i) dst[i] = fn(src[i]);
    return out;
  }

  // --- Reductions -------------------------------------------------------

  /// Column sums as a 1 x cols matrix (bias gradients).
  Matrix SumRows() const;
  /// Column means as a 1 x cols matrix.
  Matrix MeanRows() const;
  double Sum() const;
  /// Mean of squared elements; the core of the MSE loss.
  double MeanSquare() const;
  /// Largest |element|; used by gradient-explosion guards in tests.
  double AbsMax() const;

  // --- Structure --------------------------------------------------------

  /// Horizontal concatenation [this | other]; rows must match. Used by the
  /// DDPG critic to merge state and action trunks (Table 5 step 2).
  Matrix ConcatCols(const Matrix& other) const;
  /// Splits columns [0, split) and [split, cols) into two matrices.
  void SplitCols(size_t split, Matrix* left, Matrix* right) const;

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  friend std::ostream& operator<<(std::ostream& os, const Matrix& m);

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// Out-of-place convenience arithmetic.
Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator*(Matrix lhs, double factor);

}  // namespace cdbtune::nn

#endif  // CDBTUNE_NN_MATRIX_H_
