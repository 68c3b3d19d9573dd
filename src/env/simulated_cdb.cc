#include "env/simulated_cdb.h"

#include <cmath>

#include "util/logging.h"

namespace cdbtune::env {

namespace mi = metric_index;

SimulatedCdb::SimulatedCdb(knobs::KnobRegistry registry, EngineProfile profile,
                           HardwareSpec hardware, uint64_t seed)
    : registry_(std::move(registry)),
      profile_(std::move(profile)),
      hardware_(std::move(hardware)),
      minor_surface_(registry_, profile_.core_knob_names,
                     profile_.minor_knob_span),
      config_(registry_.DefaultConfig()),
      rng_(seed) {}

std::unique_ptr<SimulatedCdb> SimulatedCdb::MysqlCdb(HardwareSpec hw,
                                                     uint64_t seed) {
  return std::make_unique<SimulatedCdb>(knobs::BuildMysqlCatalog(),
                                        MysqlCdbProfile(), std::move(hw), seed);
}

std::unique_ptr<SimulatedCdb> SimulatedCdb::LocalMysql(HardwareSpec hw,
                                                       uint64_t seed) {
  return std::make_unique<SimulatedCdb>(knobs::BuildMysqlCatalog(),
                                        LocalMysqlProfile(), std::move(hw),
                                        seed);
}

std::unique_ptr<SimulatedCdb> SimulatedCdb::Postgres(HardwareSpec hw,
                                                     uint64_t seed) {
  return std::make_unique<SimulatedCdb>(knobs::BuildPostgresCatalog(),
                                        PostgresProfile(), std::move(hw), seed);
}

std::unique_ptr<SimulatedCdb> SimulatedCdb::Mongo(HardwareSpec hw,
                                                  uint64_t seed) {
  return std::make_unique<SimulatedCdb>(knobs::BuildMongoCatalog(),
                                        MongoProfile(), std::move(hw), seed);
}

util::Status SimulatedCdb::ApplyConfig(const knobs::Config& config) {
  if (config.size() != registry_.size()) {
    return util::Status::InvalidArgument("config has wrong knob count");
  }
  knobs::Config sanitized = registry_.Sanitize(config);
  ModelInputs in = profile_.extract(registry_, sanitized);

  // Crash rule 1 (Section 5.2.3): redo/journal allocation beyond what the
  // disk can host takes the instance down on restart.
  if (in.log_total_bytes >
      profile_.log_disk_crash_fraction * hardware_.disk_bytes()) {
    ++crash_count_;
    counters_ = MetricsSnapshot{};  // Crash + restart clears counters.
    return util::Status::Crashed(
        "redo log allocation exceeds disk budget; instance failed to start");
  }
  // Crash rule 2: fixed server allocations beyond physical memory.
  if (in.buffer_pool_bytes + in.log_buffer_bytes >
      0.98 * hardware_.ram_bytes()) {
    ++crash_count_;
    counters_ = MetricsSnapshot{};
    return util::Status::Crashed(
        "buffer allocations exceed physical memory; instance OOM-killed");
  }
  config_ = std::move(sanitized);
  return util::Status::Ok();
}

util::Status SimulatedCdb::SetDegrade(const DegradeSpec& spec) {
  if (spec.severity < 0.0 || spec.severity >= 1.0) {
    return util::Status::InvalidArgument(
        "degrade severity must be in [0, 1)");
  }
  if (spec.severity > 0.0) {
    auto index = registry_.FindIndex(spec.knob);
    if (!index.has_value()) {
      return util::Status::InvalidArgument("unknown degrade knob: " +
                                           spec.knob);
    }
    degrade_index_ = *index;
    degrade_default_norm_ =
        registry_.Normalize(registry_.DefaultConfig())[degrade_index_];
  }
  degrade_ = spec;
  return util::Status::Ok();
}

PerfOutcome SimulatedCdb::EvaluateNoiseless(
    const knobs::Config& config, const workload::WorkloadSpec& spec) const {
  knobs::Config sanitized = registry_.Sanitize(config);
  ModelInputs in = profile_.extract(registry_, sanitized);
  in.minor_factor = minor_surface_.Evaluate(sanitized);
  return EvaluatePerformance(in, hardware_, spec, profile_.base_cpu_us);
}

util::StatusOr<StressResult> SimulatedCdb::RunStress(
    const workload::WorkloadSpec& spec, double duration_s) {
  if (duration_s <= 0.0) {
    return util::Status::InvalidArgument("non-positive stress duration");
  }
  StressResult result;
  result.before = counters_;
  result.duration_s = duration_s;

  ModelInputs in = profile_.extract(registry_, config_);
  in.minor_factor = minor_surface_.Evaluate(config_);
  PerfOutcome perf =
      EvaluatePerformance(in, hardware_, spec, profile_.base_cpu_us);

  ++stress_calls_;
  if (degrade_.severity > 0.0 && stress_calls_ > degrade_.after_stress_calls) {
    const double dev = std::fabs(registry_.Normalize(config_)[degrade_index_] -
                                 degrade_default_norm_);
    const double factor =
        std::max(0.05, 1.0 - degrade_.severity * std::min(1.0, dev));
    perf.throughput_tps *= factor;
    perf.latency_mean_ms /= factor;
    perf.latency_p99_ms /= factor;
  }

  // Measurement noise: external metrics are 5 s samples averaged over the
  // run (Section 2.2.2), so the aggregate noise shrinks with duration.
  const double samples = std::max(1.0, duration_s / 5.0);
  const double sigma = 0.018 / std::sqrt(samples);
  const double tps_noise = std::exp(rng_.Gaussian(0.0, sigma));
  const double lat_noise = std::exp(rng_.Gaussian(0.0, sigma * 1.5));

  result.external.throughput_tps = perf.throughput_tps * tps_noise;
  result.external.latency_mean_ms = perf.latency_mean_ms / tps_noise;
  result.external.latency_p99_ms = perf.latency_p99_ms * lat_noise / tps_noise;

  IntegrateCounters(perf, spec, duration_s);
  FillStateGauges(perf, in, spec);
  result.after = counters_;
  return result;
}

void SimulatedCdb::Reset() {
  config_ = registry_.DefaultConfig();
  counters_ = MetricsSnapshot{};
  crash_count_ = 0;
  stress_calls_ = 0;
}

void SimulatedCdb::SaveBinary(persist::Encoder& enc) const {
  SaveEngineState(enc, config_, counters_, rng_, crash_count_);
  enc.WriteU64(stress_calls_);
}

util::Status SimulatedCdb::RestoreBinary(persist::Decoder& dec) {
  CDBTUNE_RETURN_IF_ERROR(RestoreEngineState(dec, registry_, &config_,
                                             &counters_, &rng_, &crash_count_));
  if (!dec.ReadU64(&stress_calls_)) return dec.status();
  return util::Status::Ok();
}

void SimulatedCdb::FillStateGauges(const PerfOutcome& perf,
                                   const ModelInputs& in,
                                   const workload::WorkloadSpec& spec) {
  const double page_bytes = 16.0 * 1024.0;
  const double pages_total = in.buffer_pool_bytes / page_bytes;
  // Pool fill: bounded by how much data the workload can pull in.
  const double data_bytes = spec.data_size_gb * 1024.0 * 1024.0 * 1024.0;
  const double pages_data =
      std::min(pages_total * 0.97, data_bytes / page_bytes);
  const double jitter = 1.0 + rng_.Gaussian(0.0, 0.01);

  counters_[mi::kBufferPoolPagesTotal] = pages_total;
  counters_[mi::kBufferPoolPagesData] = pages_data * jitter;
  counters_[mi::kBufferPoolPagesDirty] =
      pages_data * perf.dirty_page_fraction * jitter;
  counters_[mi::kBufferPoolPagesMisc] = pages_total * 0.02;
  counters_[mi::kBufferPoolPagesFree] =
      std::max(0.0, pages_total - pages_data - pages_total * 0.02);
  counters_[mi::kPageSize] = page_bytes;
  counters_[mi::kThreadsRunning] = perf.admitted_threads * jitter;
  counters_[mi::kThreadsConnected] = perf.effective_concurrency;
  counters_[mi::kThreadsCached] =
      std::max(0.0, perf.effective_concurrency * 0.1);
  counters_[mi::kOpenTables] = 16.0;  // Sysbench-style schema.
  counters_[mi::kOpenFiles] = 64.0;
  counters_[mi::kRowLockCurrentWaits] =
      perf.lock_contention * perf.admitted_threads * jitter;
  counters_[mi::kNumOpenFiles] = 48.0;
  counters_[mi::kQcacheFreeMemory] = 0.0;
}

void SimulatedCdb::IntegrateCounters(const PerfOutcome& perf,
                                     const workload::WorkloadSpec& spec,
                                     double dur) {
  auto add = [&](size_t idx, double rate) {
    counters_[idx] += std::max(0.0, rate) * dur *
                      (1.0 + rng_.Gaussian(0.0, 0.005));
  };
  const double tps = perf.throughput_tps;
  const double ops = std::max(1.0, spec.ops_per_txn);
  const double reads = ops * spec.read_fraction;
  const double scans = reads * spec.scan_fraction;
  const double points = reads - scans;
  const double writes = ops * (1.0 - spec.read_fraction);
  const double inserts = writes * spec.insert_fraction;
  const double updates = writes - inserts;

  add(mi::kBpReadRequests, perf.read_request_rate);
  add(mi::kBpReads, perf.physical_read_rate);
  add(mi::kBpWriteRequests, perf.write_request_rate);
  add(mi::kBpPagesFlushed, perf.page_flush_rate);
  add(mi::kBpReadAhead, perf.physical_read_rate * 0.2);
  add(mi::kBpReadAheadEvicted, perf.physical_read_rate * 0.02);
  add(mi::kBpWaitFree, perf.page_flush_rate * 0.01 *
                           std::max(0.0, perf.checkpoint_penalty - 1.0));
  add(mi::kDataRead, perf.physical_read_rate * 16.0 * 1024.0);
  add(mi::kDataReads, perf.physical_read_rate);
  add(mi::kDataWrites, perf.page_flush_rate);
  add(mi::kDataWritten, perf.page_flush_rate * 16.0 * 1024.0);
  add(mi::kDataFsyncs, perf.fsync_rate);
  add(mi::kDataPendingReads, perf.physical_read_rate * 0.002);
  add(mi::kDataPendingWrites, perf.page_flush_rate * 0.002);
  add(mi::kLogWriteRequests, perf.log_write_rate * 1.5);
  add(mi::kLogWrites, perf.log_write_rate);
  add(mi::kLogWaits, perf.log_wait_rate);
  add(mi::kOsLogFsyncs, perf.fsync_rate);
  add(mi::kOsLogWritten, perf.log_write_rate * 512.0);
  add(mi::kPagesCreated, tps * inserts * 0.05);
  add(mi::kPagesRead, perf.physical_read_rate);
  add(mi::kPagesWritten, perf.page_flush_rate);
  add(mi::kRowsRead, tps * (points + scans * spec.scan_length));
  add(mi::kRowsInserted, tps * inserts);
  add(mi::kRowsUpdated, tps * updates);
  add(mi::kRowsDeleted, tps * inserts * 0.5);
  add(mi::kRowLockTime, perf.lock_wait_rate * 25.0);
  add(mi::kRowLockWaits, perf.lock_wait_rate);
  add(mi::kRowLockTimeAvg, perf.lock_contention * 10.0);
  add(mi::kLockTimeouts, perf.lock_wait_rate * 0.01);
  add(mi::kComSelect, tps * reads);
  add(mi::kComInsert, tps * inserts);
  add(mi::kComUpdate, tps * updates);
  add(mi::kComDelete, tps * inserts * 0.5);
  add(mi::kComCommit, tps);
  add(mi::kComRollback, tps * 0.002);
  add(mi::kQuestions, tps * ops);
  add(mi::kQueries, tps * ops);
  add(mi::kBytesReceived, tps * ops * 120.0);
  add(mi::kBytesSent, tps * (points * 220.0 + scans * spec.scan_length * 200.0));
  add(mi::kCreatedTmpTables, tps * spec.sort_heavy_fraction * 1.2);
  add(mi::kCreatedTmpDiskTables, perf.tmp_disk_table_rate);
  add(mi::kSortMergePasses, perf.sort_merge_rate);
  add(mi::kSortRows, tps * spec.sort_heavy_fraction * spec.scan_length);
  add(mi::kSelectScan, tps * scans);
  add(mi::kSelectRange, tps * scans * 0.7);
  add(mi::kTableLocksWaited, perf.lock_wait_rate * 0.05);
  add(mi::kAbortedConnects,
      std::max(0.0, static_cast<double>(spec.client_threads) -
                        perf.effective_concurrency) *
          0.01);
  add(mi::kSlowQueries, tps * 0.001 * perf.checkpoint_penalty);
}

}  // namespace cdbtune::env
