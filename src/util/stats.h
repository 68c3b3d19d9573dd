#ifndef CDBTUNE_UTIL_STATS_H_
#define CDBTUNE_UTIL_STATS_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace cdbtune::util {

/// Single-pass mean/variance accumulator (Welford's algorithm).
///
/// Used by the metrics collector to average internal metric samples over a
/// stress-test interval (Section 2.2.2), and by state normalization.
class RunningStat {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

  void Reset();

  /// Restores the accumulator from previously captured moments (model
  /// persistence); `m2` is the sum of squared deviations.
  void RestoreMoments(size_t count, double mean, double m2, double min,
                      double max);
  double m2() const { return m2_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Collects samples and answers percentile queries. The paper reports 99th
/// percentile latency; this keeps all samples (experiments are small enough)
/// and sorts lazily on query.
class PercentileTracker {
 public:
  void Add(double x);
  void AddAll(const std::vector<double>& xs);

  size_t count() const { return samples_.size(); }
  double mean() const;

  /// Returns the p-quantile with linear interpolation, p in [0, 1].
  /// Returns 0 when empty.
  double Percentile(double p) const;

  void Reset();

 private:
  // Sorted lazily: mutable so Percentile() can stay const for callers.
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// Per-dimension standardization (x - mean) / std for state vectors fed to
/// the neural networks. Statistics update online as transitions arrive, the
/// way the tuner sees data during try-and-error training.
class VectorStandardizer {
 public:
  explicit VectorStandardizer(size_t dim);

  /// Folds one observation into the running statistics.
  void Observe(const std::vector<double>& x);

  /// Returns the standardized copy of `x`. Dimensions that have seen fewer
  /// than two samples (or have ~zero variance) pass through mean-centered
  /// with unit scale, so early training steps stay finite.
  std::vector<double> Transform(const std::vector<double>& x) const;

  size_t dim() const { return stats_.size(); }
  size_t count() const { return stats_.empty() ? 0 : stats_[0].count(); }

  /// Per-dimension statistics for tuner::MetricsCollector's model codec.
  /// RestoreStats requires `stats.size() == dim()`.
  const std::vector<RunningStat>& stats() const { return stats_; }
  void RestoreStats(std::vector<RunningStat> stats) {
    stats_ = std::move(stats);
  }

 private:
  std::vector<RunningStat> stats_;
};

/// Exponential moving average, used for smoothed convergence detection
/// ("performance change below 0.5% for five consecutive steps", App. C.1.1).
class Ema {
 public:
  explicit Ema(double alpha) : alpha_(alpha) {}

  double Add(double x);
  double value() const { return value_; }
  bool initialized() const { return initialized_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

}  // namespace cdbtune::util

#endif  // CDBTUNE_UTIL_STATS_H_
