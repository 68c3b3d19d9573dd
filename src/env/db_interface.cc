#include "env/db_interface.h"

#include <climits>

namespace cdbtune::env {

void SaveEngineState(persist::Encoder& enc, const knobs::Config& config,
                     const MetricsSnapshot& counters, const util::Rng& rng,
                     int crash_count) {
  enc.WriteDoubleVec(config);
  enc.WriteU64(counters.size());
  for (double counter : counters) enc.WriteDouble(counter);
  enc.WriteString(rng.SerializeState());
  enc.WriteI64(crash_count);
}

util::Status RestoreEngineState(persist::Decoder& dec,
                                const knobs::KnobRegistry& registry,
                                knobs::Config* config,
                                MetricsSnapshot* counters, util::Rng* rng,
                                int* crash_count) {
  knobs::Config saved_config;
  uint64_t counter_count = 0;
  MetricsSnapshot saved_counters{};
  std::string rng_text;
  int64_t crashes = 0;
  if (!dec.ReadDoubleVec(&saved_config) || !dec.ReadU64(&counter_count)) {
    return dec.status();
  }
  for (double& counter : saved_counters) {
    if (!dec.ReadDouble(&counter)) return dec.status();
  }
  if (!dec.ReadString(&rng_text) || !dec.ReadI64(&crashes)) {
    return dec.status();
  }
  if (saved_config.size() != registry.size() ||
      registry.Sanitize(saved_config) != saved_config) {
    return util::Status::DataLoss("engine config lies outside its catalog");
  }
  if (counter_count != kNumInternalMetrics) {
    return util::Status::DataLoss("engine counter count is wrong");
  }
  if (crashes < 0 || crashes > INT_MAX) {
    return util::Status::DataLoss("engine crash count is out of range");
  }
  // RestoreState leaves the rng untouched when the text does not parse.
  if (!rng->RestoreState(rng_text)) {
    return util::Status::DataLoss("engine rng state is malformed");
  }
  *config = std::move(saved_config);
  *counters = saved_counters;
  *crash_count = static_cast<int>(crashes);
  return util::Status::Ok();
}

}  // namespace cdbtune::env
