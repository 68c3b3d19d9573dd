#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace cdbtune::util {

void RunningStat::Add(double x) {
  ++count_;
  if (count_ == 1) {
    mean_ = x;
    m2_ = 0.0;
    min_ = x;
    max_ = x;
    return;
  }
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

void RunningStat::RestoreMoments(size_t count, double mean, double m2,
                                 double min, double max) {
  count_ = count;
  mean_ = mean;
  m2_ = m2;
  min_ = min;
  max_ = max;
}

void RunningStat::Reset() {
  count_ = 0;
  mean_ = 0.0;
  m2_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

void PercentileTracker::Add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void PercentileTracker::AddAll(const std::vector<double>& xs) {
  samples_.insert(samples_.end(), xs.begin(), xs.end());
  sorted_ = false;
}

double PercentileTracker::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double x : samples_) sum += x;
  return sum / static_cast<double>(samples_.size());
}

double PercentileTracker::Percentile(double p) const {
  if (samples_.empty()) return 0.0;
  CDBTUNE_CHECK(p >= 0.0 && p <= 1.0) << "percentile out of range: " << p;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  if (samples_.size() == 1) return samples_[0];
  double pos = p * static_cast<double>(samples_.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, samples_.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

void PercentileTracker::Reset() {
  samples_.clear();
  sorted_ = false;
}

VectorStandardizer::VectorStandardizer(size_t dim) : stats_(dim) {}

void VectorStandardizer::Observe(const std::vector<double>& x) {
  CDBTUNE_CHECK(x.size() == stats_.size())
      << "dimension mismatch: " << x.size() << " vs " << stats_.size();
  for (size_t i = 0; i < x.size(); ++i) stats_[i].Add(x[i]);
}

std::vector<double> VectorStandardizer::Transform(
    const std::vector<double>& x) const {
  CDBTUNE_CHECK(x.size() == stats_.size())
      << "dimension mismatch: " << x.size() << " vs " << stats_.size();
  std::vector<double> out(x.size());
  constexpr double kMinStddev = 1e-9;
  for (size_t i = 0; i < x.size(); ++i) {
    double sd = stats_[i].stddev();
    double centered = x[i] - stats_[i].mean();
    out[i] = sd > kMinStddev ? centered / sd : centered;
  }
  return out;
}

double Ema::Add(double x) {
  if (!initialized_) {
    value_ = x;
    initialized_ = true;
  } else {
    value_ = alpha_ * x + (1.0 - alpha_) * value_;
  }
  return value_;
}

}  // namespace cdbtune::util
