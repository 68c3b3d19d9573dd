#ifndef CDBTUNE_TUNER_METRICS_COLLECTOR_H_
#define CDBTUNE_TUNER_METRICS_COLLECTOR_H_

#include <vector>

#include "env/metrics.h"
#include "persist/encoding.h"
#include "tuner/reward.h"
#include "util/stats.h"
#include "util/status.h"

namespace cdbtune::tuner {

/// Turns raw stress-test output into the 63-dimensional state vector the
/// deep RL network consumes (Figure 2's "Metrics Collector", Section 2.2.2):
///
///   - state metrics (gauges) are taken as their interval average;
///   - cumulative metrics are differenced across the interval and divided
///     by its duration, yielding rates;
///   - the resulting vector is standardized per-dimension with running
///     statistics accumulated over everything the collector has seen, so
///     network inputs stay well-scaled as training progresses.
class MetricsCollector {
 public:
  MetricsCollector();

  /// Gauge averages + counter rates, without standardization.
  std::vector<double> ProcessRaw(const env::StressResult& result) const;

  /// ProcessRaw + observe into the running statistics + standardize. This
  /// is the vector fed to the agent.
  std::vector<double> Process(const env::StressResult& result);

  /// Standardizes with current statistics without updating them (used when
  /// scoring a state twice).
  std::vector<double> Standardize(const std::vector<double>& raw) const;

  /// External metrics -> the reward function's performance point.
  static PerfPoint ToPerfPoint(const env::ExternalMetrics& external);

  size_t observations() const { return standardizer_.count(); }

  /// Bit-exact codec for the normalization statistics (part of a trained
  /// model's state: the network expects inputs scaled the way it saw them).
  /// LoadBinary returns kDataLoss on a short read or a dimension mismatch,
  /// leaving this collector untouched.
  void SaveBinary(persist::Encoder& enc) const;
  util::Status LoadBinary(persist::Decoder& dec);

 private:
  util::VectorStandardizer standardizer_;
};

}  // namespace cdbtune::tuner

#endif  // CDBTUNE_TUNER_METRICS_COLLECTOR_H_
