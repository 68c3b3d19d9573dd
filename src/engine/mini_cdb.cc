#include "engine/mini_cdb.h"

#include <algorithm>
#include <cmath>

#include "env/metrics.h"
#include "util/check.h"

namespace cdbtune::engine {

namespace mi = env::metric_index;

namespace {

double ReadKnob(const knobs::KnobRegistry& reg, const knobs::Config& c,
                const char* name, double fallback) {
  auto idx = reg.FindIndex(name);
  return idx.has_value() ? c[*idx] : fallback;
}

/// CPU charged per operation kind (parse/plan/execute, network handling).
constexpr VirtualNanos kPointOpCpuNs = 18'000;
constexpr VirtualNanos kWriteOpCpuNs = 24'000;
constexpr VirtualNanos kScanPerRowCpuNs = 500;

}  // namespace

MiniCdb::MiniCdb(env::HardwareSpec hardware, MiniCdbOptions options)
    : hardware_(std::move(hardware)),
      options_(options),
      registry_(knobs::BuildMysqlCatalog()),
      config_(registry_.DefaultConfig()),
      rng_(options.seed),
      next_insert_key_(options.table_rows) {
  scale_ = ScaleFor(options_);
  Reset();
}

double MiniCdb::ScaleFor(const MiniCdbOptions& options) {
  const double table_bytes =
      static_cast<double>(options.table_rows) * kRecordSize * 1.15;
  return table_bytes / (options.reference_data_gb * 1024.0 * 1024.0 * 1024.0);
}

util::Status MiniCdb::Restart() {
  CDBTUNE_RETURN_IF_ERROR(Rebuild());
  util::Status loaded = BulkLoad();
  if (!loaded.ok()) {
    // The redo reservation fit but left no room for the table: the
    // instance cannot start, which is a crash like any other.
    ++crash_count_;
    return util::Status::Crashed("table does not fit beside the redo log: " +
                                 loaded.message());
  }
  return loaded;
}

util::Status MiniCdb::Rebuild() {
  // Tear down in dependency order; the WAL releases its disk reservation.
  btree_.reset();
  wal_.reset();
  pool_.reset();
  disk_.reset();
  clock_.Reset();

  disk_ = std::make_unique<DiskManager>(
      &clock_, hardware_.disk_type,
      static_cast<uint64_t>(hardware_.disk_bytes() * scale_));

  // Buffer pool: scaled innodb_buffer_pool_size, with the same
  // physical-memory crash rule as the cloud instance.
  double bp_bytes = ReadKnob(registry_, config_, "innodb_buffer_pool_size",
                             128.0 * 1024 * 1024);
  double log_buffer =
      ReadKnob(registry_, config_, "innodb_log_buffer_size", 16.0 * 1024 * 1024);
  if (bp_bytes + log_buffer > 0.98 * hardware_.ram_bytes()) {
    ++crash_count_;
    return util::Status::Crashed(
        "buffer allocations exceed physical memory; instance OOM-killed");
  }
  size_t frames = std::max<size_t>(
      16, static_cast<size_t>(bp_bytes * scale_ / kPageSize));
  pool_ = std::make_unique<BufferPool>(disk_.get(), &clock_, frames);

  WalOptions wal_options;
  wal_options.file_size_bytes = static_cast<uint64_t>(std::max(
      64.0 * 1024,
      ReadKnob(registry_, config_, "innodb_log_file_size", 48.0 * 1024 * 1024) *
          scale_));
  wal_options.files_in_group = static_cast<uint32_t>(
      ReadKnob(registry_, config_, "innodb_log_files_in_group", 2));
  wal_options.log_buffer_bytes = static_cast<uint64_t>(
      std::max(16.0 * 1024, log_buffer * scale_));
  double policy =
      ReadKnob(registry_, config_, "innodb_flush_log_at_trx_commit", 1);
  wal_options.flush_policy = policy == 1.0   ? WalFlushPolicy::kFsyncPerCommit
                             : policy == 2.0 ? WalFlushPolicy::kWritePerCommit
                                             : WalFlushPolicy::kLazy;
  auto wal = Wal::Create(disk_.get(), &clock_, wal_options);
  if (!wal.ok()) {
    ++crash_count_;
    return util::Status::Crashed(
        "redo log allocation exceeds disk budget: " + wal.status().message());
  }
  wal_ = std::move(wal.value());

  auto tree = BTree::Create(pool_.get());
  CDBTUNE_RETURN_IF_ERROR(tree.status());
  btree_ = std::move(tree.value());
  return util::Status::Ok();
}

util::Status MiniCdb::BulkLoad() {
  char payload[kRecordPayload];
  std::memset(payload, 0xAB, sizeof(payload));
  for (uint64_t key = 0; key < options_.table_rows; ++key) {
    CDBTUNE_RETURN_IF_ERROR(btree_->Insert(key, payload));
  }
  next_insert_key_ = options_.table_rows;
  return TakeCheckpoint();
}

util::Status MiniCdb::TakeCheckpoint() {
  // Checkpoints are the engine's quiescent points: in debug builds, walk
  // the tree and the WAL bookkeeping before trusting the image.
  CDBTUNE_DCHECK_OK(btree_->Validate());
  CDBTUNE_RETURN_IF_ERROR(pool_->FlushAll());
  wal_->CheckpointComplete();
  disk_->MarkCheckpoint();
  checkpoint_meta_.root = btree_->root();
  checkpoint_meta_.height = btree_->height();
  checkpoint_meta_.entries = btree_->num_entries();
  checkpoint_meta_.next_key = next_insert_key_;
  return util::Status::Ok();
}

util::Status MiniCdb::SimulateCrashAndRecover(size_t* replayed_out) {
  if (btree_ == nullptr) {
    return util::Status::FailedPrecondition("instance is down");
  }
  // What the journal can give back: records fsynced before the crash.
  std::vector<RedoRecord> records = wal_->RecoverableRecords();

  // Crash: volatile state evaporates; the data files present the last
  // atomic checkpoint image.
  pool_->DropAll();
  disk_->RevertToCheckpoint();
  btree_ = BTree::Attach(pool_.get(), checkpoint_meta_.root,
                         checkpoint_meta_.height, checkpoint_meta_.entries);
  next_insert_key_ = checkpoint_meta_.next_key;
  ++crash_count_;

  // Recovery: replay the durable journal in LSN order.
  size_t replayed = 0;
  for (const RedoRecord& record : records) {
    if (record.is_insert) {
      CDBTUNE_RETURN_IF_ERROR(btree_->Insert(record.key, record.payload));
      next_insert_key_ = std::max(next_insert_key_, record.key + 1);
    } else {
      auto updated = btree_->Update(record.key, record.payload);
      CDBTUNE_RETURN_IF_ERROR(updated.status());
    }
    ++replayed;
  }
  if (replayed_out != nullptr) *replayed_out = replayed;
  // Recovery ends with a fresh checkpoint, as real engines do.
  return TakeCheckpoint();
}

util::Status MiniCdb::ApplyConfig(const knobs::Config& config) {
  if (config.size() != registry_.size()) {
    return util::Status::InvalidArgument("config has wrong knob count");
  }
  knobs::Config previous = config_;
  config_ = registry_.Sanitize(config);
  util::Status status = Restart();
  if (status.ok()) return status;
  // Crash: the instance restarts on the previous healthy configuration.
  config_ = std::move(previous);
  counters_ = env::MetricsSnapshot{};
  util::Status recover = Restart();
  if (!recover.ok()) {
    // That configuration started before, so this needs an engine bug; fail
    // this instance alone (RunStress reports it down), not the process.
    btree_.reset();
    return util::Status::Internal("recovery restart failed: " +
                                  recover.ToString());
  }
  return status;
}

void MiniCdb::Reset() {
  config_ = registry_.DefaultConfig();
  counters_ = env::MetricsSnapshot{};
  crash_count_ = 0;
  // A shape the default config cannot boot on (a disk smaller than the
  // table, RAM below the default buffers) leaves the instance down:
  // RunStress reports it, so its owner fails that one tenant.
  if (!Restart().ok()) btree_.reset();
}

void MiniCdb::SaveBinary(persist::Encoder& enc) const {
  env::SaveEngineState(enc, config_, counters_, rng_, crash_count_);
}

util::Status MiniCdb::RestoreBinary(persist::Decoder& dec) {
  CDBTUNE_RETURN_IF_ERROR(env::RestoreEngineState(
      dec, registry_, &config_, &counters_, &rng_, &crash_count_));
  // The pages, clock and WAL are not saved because no later call can read
  // them. ApplyConfig and Reset rebuild and bulk-load the engine from the
  // config alone, and BulkLoad draws no randomness, so after a boot the
  // engine is a function of (config, options, hardware). Only RunStress
  // leaves anything else behind, and the tuning session never stresses
  // twice without a deploy in between: Begin stresses, each Step deploys,
  // may stress and may deploy a rollback, and Finish deploys. So a saved
  // instance differs from a freshly booted one only until its next deploy,
  // which discards the difference. Booting here keeps config_ describing
  // the running engine; a config that cannot boot leaves the instance
  // down, as it was when it was saved, and is not counted as a new crash.
  const int crashes = crash_count_;
  if (!Restart().ok()) btree_.reset();
  crash_count_ = crashes;
  return util::Status::Ok();
}

util::StatusOr<env::StressResult> MiniCdb::RunStress(
    const workload::WorkloadSpec& spec, double duration_s) {
  if (duration_s <= 0.0) {
    return util::Status::InvalidArgument("non-positive stress duration");
  }
  if (btree_ == nullptr) {
    return util::Status::FailedPrecondition("instance is down");
  }
  env::StressResult result;
  result.before = counters_;
  result.duration_s = duration_s;

  // Stress knobs -> engine behavior for this run.
  const double io_capacity =
      ReadKnob(registry_, config_, "innodb_io_capacity", 200.0);
  const double max_dirty_pct =
      ReadKnob(registry_, config_, "innodb_max_dirty_pages_pct", 75.0);
  const double max_conn = ReadKnob(registry_, config_, "max_connections", 151);
  const double threads = static_cast<double>(spec.client_threads);
  const double admitted = std::min(threads, std::max(1.0, max_conn));

  workload::OperationGenerator generator(
      spec, next_insert_key_, util::Rng(rng_.engine()()));

  const double virtual_budget_s = duration_s / options_.time_scale;
  const VirtualNanos start_ns = clock_.now();
  const VirtualNanos budget_ns =
      static_cast<VirtualNanos>(virtual_budget_s * 1e9);
  VirtualNanos next_cleaner_ns = start_ns;
  const VirtualNanos cleaner_period_ns = 10'000'000;  // 10 ms rounds.

  uint64_t txns = 0, reads = 0, writes = 0, scans = 0, commits = 0;
  util::PercentileTracker txn_latency;
  VirtualNanos txn_start = clock_.now();
  char payload[kRecordPayload];
  std::memset(payload, 0xCD, sizeof(payload));

  while (clock_.now() - start_ns < budget_ns) {
    workload::Operation op = generator.Next();
    switch (op.kind) {
      case workload::Operation::Kind::kPointRead: {
        clock_.Advance(kPointOpCpuNs);
        auto found = btree_->Get(op.key % options_.table_rows, nullptr);
        CDBTUNE_RETURN_IF_ERROR(found.status());
        ++reads;
        break;
      }
      case workload::Operation::Kind::kRangeScan: {
        clock_.Advance(kPointOpCpuNs +
                       static_cast<VirtualNanos>(op.scan_rows) *
                           kScanPerRowCpuNs);
        auto visited =
            btree_->Scan(op.key % options_.table_rows, op.scan_rows);
        CDBTUNE_RETURN_IF_ERROR(visited.status());
        ++scans;
        reads += visited.value();
        break;
      }
      case workload::Operation::Kind::kUpdate: {
        clock_.Advance(kWriteOpCpuNs);
        uint64_t key = op.key % options_.table_rows;
        auto ok = btree_->Update(key, payload);
        CDBTUNE_RETURN_IF_ERROR(ok.status());
        wal_->AppendRecord(key, /*is_insert=*/false, payload, 320);
        ++writes;
        break;
      }
      case workload::Operation::Kind::kInsert: {
        clock_.Advance(kWriteOpCpuNs);
        CDBTUNE_RETURN_IF_ERROR(btree_->Insert(next_insert_key_, payload));
        wal_->AppendRecord(next_insert_key_, /*is_insert=*/true, payload, 480);
        ++next_insert_key_;
        ++writes;
        break;
      }
    }

    if (op.commit_after) {
      // Group commit: charge this stream a 1/group share of the fsync work
      // by only issuing the device flush every `group` commits (the WAL's
      // own group counter handles that).
      wal_->Commit();
      ++commits;
      ++txns;
      txn_latency.Add(static_cast<double>(clock_.now() - txn_start) * 1e-6);
      txn_start = clock_.now();
    }

    // Background cleaners: every 10 virtual ms, flush according to
    // io_capacity and the dirty-page high-water mark.
    if (clock_.now() >= next_cleaner_ns) {
      next_cleaner_ns = clock_.now() + cleaner_period_ns;
      double dirty_fraction =
          static_cast<double>(pool_->dirty_pages()) /
          std::max<size_t>(1, pool_->num_frames());
      if (dirty_fraction * 100.0 > max_dirty_pct * 0.5) {
        size_t budget = static_cast<size_t>(io_capacity * 0.01) + 1;
        pool_->FlushSome(budget);
      }
    }

    // Checkpoint stall: redo filled up; everything waits for a full flush
    // and a fresh crash-consistent image.
    if (wal_->NeedsCheckpoint()) {
      CDBTUNE_RETURN_IF_ERROR(TakeCheckpoint());
    }
  }

  const double elapsed_s =
      static_cast<double>(clock_.now() - start_ns) * 1e-9;
  // Single-stream execution measured; offered concurrency overlaps I/O
  // waits across threads. Effective parallelism is bounded by cores for
  // CPU work and by admitted connections overall.
  const double parallelism =
      std::min(admitted, static_cast<double>(hardware_.cpu_cores) * 4.0);
  const double tps =
      std::max(1e-3, static_cast<double>(txns) / elapsed_s * parallelism /
                         options_.time_scale);

  result.external.throughput_tps = tps;
  // All offered clients queue on the system (Little's law view).
  result.external.latency_mean_ms = threads * 1000.0 / tps * 0.8;
  const double single_p99 = txn_latency.Percentile(0.99);
  const double single_mean = std::max(1e-6, txn_latency.mean());
  result.external.latency_p99_ms =
      result.external.latency_mean_ms * (single_p99 / single_mean) * 0.5 +
      result.external.latency_mean_ms;

  UpdateCounters(spec, txns, reads, writes, scans, duration_s, admitted);
  result.after = counters_;
  return result;
}

void MiniCdb::UpdateCounters(const workload::WorkloadSpec& spec, uint64_t txns,
                             uint64_t reads, uint64_t writes, uint64_t scans,
                             double duration_s, double admitted) {
  // Gauges.
  counters_[mi::kBufferPoolPagesTotal] =
      static_cast<double>(pool_->num_frames());
  counters_[mi::kBufferPoolPagesData] =
      static_cast<double>(pool_->pages_cached());
  counters_[mi::kBufferPoolPagesDirty] =
      static_cast<double>(pool_->dirty_pages());
  counters_[mi::kBufferPoolPagesMisc] = 0.0;
  counters_[mi::kBufferPoolPagesFree] = static_cast<double>(
      pool_->num_frames() - std::min(pool_->num_frames(), pool_->pages_cached()));
  counters_[mi::kPageSize] = static_cast<double>(kPageSize);
  counters_[mi::kThreadsRunning] = admitted;
  counters_[mi::kThreadsConnected] = static_cast<double>(spec.client_threads);
  counters_[mi::kThreadsCached] = admitted * 0.1;
  counters_[mi::kOpenTables] = 1.0;
  counters_[mi::kOpenFiles] = 4.0;
  counters_[mi::kRowLockCurrentWaits] = 0.0;
  counters_[mi::kNumOpenFiles] = 4.0;
  counters_[mi::kQcacheFreeMemory] = 0.0;

  // Cumulative counters scale by the virtual-time compression so rates per
  // stress second look like the full-size system's.
  const double scale_up = options_.time_scale;
  auto add = [&](size_t idx, double delta) {
    counters_[idx] += delta * scale_up;
  };
  add(mi::kBpReadRequests, static_cast<double>(pool_->hits() + pool_->misses()));
  add(mi::kBpReads, static_cast<double>(pool_->misses()));
  add(mi::kBpWriteRequests, static_cast<double>(writes));
  add(mi::kBpPagesFlushed, static_cast<double>(pool_->pages_flushed()));
  add(mi::kDataReads, static_cast<double>(disk_->reads_issued()));
  add(mi::kDataWrites, static_cast<double>(disk_->writes_issued()));
  add(mi::kDataRead, static_cast<double>(disk_->reads_issued()) * kPageSize);
  add(mi::kDataWritten, static_cast<double>(disk_->writes_issued()) * kPageSize);
  add(mi::kDataFsyncs, static_cast<double>(disk_->fsyncs_issued()));
  add(mi::kLogWrites, static_cast<double>(wal_->log_writes()));
  add(mi::kLogWriteRequests, static_cast<double>(writes));
  add(mi::kLogWaits, static_cast<double>(wal_->log_waits()));
  add(mi::kOsLogFsyncs, static_cast<double>(wal_->fsyncs()));
  add(mi::kOsLogWritten, static_cast<double>(wal_->lsn()) * 360.0);
  add(mi::kPagesRead, static_cast<double>(disk_->reads_issued()));
  add(mi::kPagesWritten, static_cast<double>(disk_->writes_issued()));
  add(mi::kRowsRead, static_cast<double>(reads));
  add(mi::kRowsInserted, static_cast<double>(writes) * spec.insert_fraction);
  add(mi::kRowsUpdated,
      static_cast<double>(writes) * (1.0 - spec.insert_fraction));
  add(mi::kComSelect, static_cast<double>(reads - scans));
  add(mi::kComInsert, static_cast<double>(writes) * spec.insert_fraction);
  add(mi::kComUpdate,
      static_cast<double>(writes) * (1.0 - spec.insert_fraction));
  add(mi::kComCommit, static_cast<double>(txns));
  add(mi::kQuestions, static_cast<double>(reads + writes));
  add(mi::kQueries, static_cast<double>(reads + writes));
  add(mi::kBytesReceived, static_cast<double>(reads + writes) * 120.0);
  add(mi::kBytesSent, static_cast<double>(reads) * 220.0);
  add(mi::kSelectScan, static_cast<double>(scans));
  add(mi::kSelectRange, static_cast<double>(scans) * 0.7);
  (void)duration_s;
}

}  // namespace cdbtune::engine
