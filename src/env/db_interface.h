#ifndef CDBTUNE_ENV_DB_INTERFACE_H_
#define CDBTUNE_ENV_DB_INTERFACE_H_

#include "env/instance.h"
#include "env/metrics.h"
#include "knobs/registry.h"
#include "persist/encoding.h"
#include "util/random.h"
#include "util/status.h"
#include "workload/workload.h"

namespace cdbtune::env {

/// The tuning target: a database instance that can accept a configuration,
/// run a stress test, and report its metrics. This is the RL "environment"
/// of Figure 3.
///
/// Two implementations exist: SimulatedCdb (closed-form performance model,
/// microseconds per stress test — used for training loops and benchmark
/// sweeps) and engine::MiniCdb (a real page/buffer-pool/WAL/B+Tree storage
/// engine executing the operations on a virtual-time disk). Tuners only see
/// this interface, so anything demonstrated on the simulator also runs
/// against the real engine.
class DbInterface {
 public:
  virtual ~DbInterface() = default;

  /// The knob catalog this engine understands.
  virtual const knobs::KnobRegistry& registry() const = 0;

  virtual const HardwareSpec& hardware() const = 0;

  /// Applies a full raw configuration (values are sanitized to each knob's
  /// domain). Returns StatusCode::kCrashed when the configuration takes the
  /// instance down — e.g., redo logs exceeding disk capacity (Section
  /// 5.2.3) or buffer allocations exceeding physical memory. After a crash
  /// the instance restarts with its previous healthy configuration.
  virtual util::Status ApplyConfig(const knobs::Config& config) = 0;

  virtual const knobs::Config& current_config() const = 0;

  /// Stress-tests the instance under `spec` for `duration_s` seconds
  /// (paper: ~150 s per step) and returns bracketing metric snapshots plus
  /// aggregated external metrics.
  virtual util::StatusOr<StressResult> RunStress(
      const workload::WorkloadSpec& spec, double duration_s) = 0;

  /// Restores the default configuration and clears counters, as after a
  /// fresh instance provisioning.
  virtual void Reset() = 0;

  /// Checkpoint codec (DESIGN.md §9): everything the instance carries from
  /// one call to the next, so that an instance built with the same
  /// constructor arguments and then restored answers every later call
  /// bitwise like the saved one. On error the instance may be partly
  /// restored and must be discarded. The defaults write nothing and refuse
  /// every restore, so a decorator that never checkpoints needs no code
  /// and a checkpoint through one fails loudly when it is restored.
  virtual void SaveBinary(persist::Encoder& /*enc*/) const {}
  virtual util::Status RestoreBinary(persist::Decoder& /*dec*/) {
    return util::Status::Unimplemented("this instance cannot be restored");
  }
};

/// The codec of the four fields both engines carry: the live config, the
/// cumulative counters, the rng stream and the crash count. The restore
/// writes its outputs only when every value is in range, and returns
/// DATA_LOSS otherwise: the config must hold one value per knob of
/// `registry` and be a fixed point of its Sanitize (every config an engine
/// holds is), there must be one value per internal metric, the rng text
/// must parse, and the crash count must fit an int.
void SaveEngineState(persist::Encoder& enc, const knobs::Config& config,
                     const MetricsSnapshot& counters, const util::Rng& rng,
                     int crash_count);
util::Status RestoreEngineState(persist::Decoder& dec,
                                const knobs::KnobRegistry& registry,
                                knobs::Config* config,
                                MetricsSnapshot* counters, util::Rng* rng,
                                int* crash_count);

}  // namespace cdbtune::env

#endif  // CDBTUNE_ENV_DB_INTERFACE_H_
