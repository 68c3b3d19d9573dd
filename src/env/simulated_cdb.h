#ifndef CDBTUNE_ENV_SIMULATED_CDB_H_
#define CDBTUNE_ENV_SIMULATED_CDB_H_

#include <memory>
#include <string>

#include "env/db_interface.h"
#include "env/perf_model.h"
#include "knobs/catalogs.h"
#include "util/random.h"

namespace cdbtune::env {

/// Analytic cloud-database instance: DbInterface backed by the closed-form
/// performance model of perf_model.h.
///
/// One stress test costs microseconds, which is what makes the paper's
/// training loops (1500+ steps, each a 150 s stress test on real hardware)
/// reproducible inside a benchmark binary. Counters behave like a real
/// server's: cumulative metrics increase monotonically across stress runs
/// and reset on restart, so the metrics collector genuinely has to diff
/// snapshots.
class SimulatedCdb : public DbInterface {
 public:
  /// `seed` controls measurement noise only; the performance surface itself
  /// is deterministic.
  SimulatedCdb(knobs::KnobRegistry registry, EngineProfile profile,
               HardwareSpec hardware, uint64_t seed = 1);

  /// Convenience factories for the paper's setups.
  static std::unique_ptr<SimulatedCdb> MysqlCdb(HardwareSpec hw,
                                                uint64_t seed = 1);
  static std::unique_ptr<SimulatedCdb> LocalMysql(HardwareSpec hw,
                                                  uint64_t seed = 1);
  static std::unique_ptr<SimulatedCdb> Postgres(HardwareSpec hw,
                                                uint64_t seed = 1);
  static std::unique_ptr<SimulatedCdb> Mongo(HardwareSpec hw,
                                             uint64_t seed = 1);

  const knobs::KnobRegistry& registry() const override { return registry_; }
  const HardwareSpec& hardware() const override { return hardware_; }
  util::Status ApplyConfig(const knobs::Config& config) override;
  const knobs::Config& current_config() const override { return config_; }
  util::StatusOr<StressResult> RunStress(const workload::WorkloadSpec& spec,
                                         double duration_s) override;
  void Reset() override;
  /// Saves the config, counters, rng stream, crash count and stress-call
  /// count. The degrade injection is part of the instance's setup
  /// (SetDegrade), not of its state.
  void SaveBinary(persist::Encoder& enc) const override;
  util::Status RestoreBinary(persist::Decoder& dec) override;

  /// Noise-free evaluation of an arbitrary configuration — used by the
  /// performance-surface figure and by tests that need exact comparisons.
  PerfOutcome EvaluateNoiseless(const knobs::Config& config,
                                const workload::WorkloadSpec& spec) const;

  /// Number of crashes caused by rejected configurations so far.
  int crash_count() const { return crash_count_; }

  const EngineProfile& profile() const { return profile_; }

  /// Injected mid-run performance regression, used by the guardrail scenario
  /// tests and the crash-recovery smoke: from the stress call *after*
  /// `after_stress_calls`, throughput is scaled by 1 - severity * dev and
  /// latencies by its inverse, where dev is how far `knob` sits from its
  /// default in normalized [0,1] space. Near-default configs (the typical
  /// last-known-good) stay healthy while tuned ones regress — exactly the
  /// shape a rollback must recover from. Deterministic in (call count,
  /// config), both of which the checkpoint codec saves, so a restored
  /// instance degrades bitwise like the saved one.
  struct DegradeSpec {
    std::string knob;
    uint64_t after_stress_calls = 0;
    /// Fraction of throughput lost at maximum knob deviation; 0 disables.
    double severity = 0.0;
  };
  util::Status SetDegrade(const DegradeSpec& spec);

 private:
  void FillStateGauges(const PerfOutcome& perf, const ModelInputs& in,
                       const workload::WorkloadSpec& spec);
  void IntegrateCounters(const PerfOutcome& perf,
                         const workload::WorkloadSpec& spec, double duration_s);

  knobs::KnobRegistry registry_;
  EngineProfile profile_;
  HardwareSpec hardware_;
  MinorKnobSurface minor_surface_;
  knobs::Config config_;
  MetricsSnapshot counters_{};
  util::Rng rng_;
  int crash_count_ = 0;

  DegradeSpec degrade_;
  size_t degrade_index_ = 0;
  double degrade_default_norm_ = 0.0;
  uint64_t stress_calls_ = 0;
};

}  // namespace cdbtune::env

#endif  // CDBTUNE_ENV_SIMULATED_CDB_H_
