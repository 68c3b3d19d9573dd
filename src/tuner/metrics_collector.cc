#include "tuner/metrics_collector.h"

#include <string>
#include <utility>

#include "util/check.h"

namespace cdbtune::tuner {

MetricsCollector::MetricsCollector()
    : standardizer_(env::kNumInternalMetrics) {}

std::vector<double> MetricsCollector::ProcessRaw(
    const env::StressResult& result) const {
  CDBTUNE_CHECK(result.duration_s > 0.0) << "zero-length stress interval";
  std::vector<double> state(env::kNumInternalMetrics);
  for (size_t i = 0; i < env::kNumInternalMetrics; ++i) {
    if (env::InternalMetricKind(i) == env::MetricKind::kState) {
      // Gauges: the environment reports the interval-average value in the
      // closing snapshot.
      state[i] = result.after[i];
    } else {
      // Counters: difference across the interval, per second.
      state[i] = (result.after[i] - result.before[i]) / result.duration_s;
    }
  }
  return state;
}

std::vector<double> MetricsCollector::Process(const env::StressResult& result) {
  std::vector<double> raw = ProcessRaw(result);
  standardizer_.Observe(raw);
  return standardizer_.Transform(raw);
}

std::vector<double> MetricsCollector::Standardize(
    const std::vector<double>& raw) const {
  return standardizer_.Transform(raw);
}

void MetricsCollector::SaveBinary(persist::Encoder& enc) const {
  const std::vector<util::RunningStat>& stats = standardizer_.stats();
  enc.WriteU64(stats.size());
  for (const util::RunningStat& s : stats) {
    enc.WriteU64(s.count());
    enc.WriteDouble(s.mean());
    enc.WriteDouble(s.m2());
    enc.WriteDouble(s.min());
    enc.WriteDouble(s.max());
  }
}

util::Status MetricsCollector::LoadBinary(persist::Decoder& dec) {
  uint64_t dim = 0;
  if (!dec.ReadU64(&dim)) return dec.status();
  if (dim != standardizer_.dim()) {
    return util::Status::DataLoss(
        "collector statistics have " + std::to_string(dim) +
        " dimensions, the collector has " +
        std::to_string(standardizer_.dim()));
  }
  std::vector<util::RunningStat> stats(dim);
  for (util::RunningStat& s : stats) {
    uint64_t count = 0;
    double mean = 0.0, m2 = 0.0, lo = 0.0, hi = 0.0;
    if (!dec.ReadU64(&count) || !dec.ReadDouble(&mean) ||
        !dec.ReadDouble(&m2) || !dec.ReadDouble(&lo) || !dec.ReadDouble(&hi)) {
      return dec.status();
    }
    s.RestoreMoments(count, mean, m2, lo, hi);
  }
  standardizer_.RestoreStats(std::move(stats));
  return util::Status::Ok();
}

PerfPoint MetricsCollector::ToPerfPoint(const env::ExternalMetrics& external) {
  PerfPoint p;
  p.throughput = external.throughput_tps;
  p.latency = external.latency_p99_ms;
  return p;
}

}  // namespace cdbtune::tuner
