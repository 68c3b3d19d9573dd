#ifndef CDBTUNE_ENGINE_MINI_CDB_H_
#define CDBTUNE_ENGINE_MINI_CDB_H_

#include <memory>

#include "engine/btree.h"
#include "engine/buffer_pool.h"
#include "engine/disk_manager.h"
#include "engine/wal.h"
#include "env/db_interface.h"
#include "knobs/catalogs.h"
#include "util/random.h"
#include "util/stats.h"
#include "workload/generator.h"

namespace cdbtune::engine {

struct MiniCdbOptions {
  /// Rows bulk-loaded into the table. The dataset is a scaled-down replica
  /// of the benchmark's (e.g., Sysbench's 8.5 GB becomes ~11 MB); byte-size
  /// knobs and the disk capacity are scaled by the same factor so cache
  /// ratios, checkpoint cadence and the crash rule behave as at full size.
  uint64_t table_rows = 100000;
  /// The full-size dataset the table stands in for.
  double reference_data_gb = 8.5;
  /// One requested stress second costs 1/time_scale virtual seconds, so a
  /// paper-faithful 150 s stress test simulates 150/time_scale s of
  /// virtual execution.
  double time_scale = 75.0;
  uint64_t seed = 3;
};

/// DbInterface over the real mini storage engine (buffer pool + WAL +
/// B+Tree on a virtual-time disk). Unlike SimulatedCdb there is no closed-
/// form performance model here: RunStress executes the workload's
/// operations against actual data structures and measures where the
/// virtual clock went. Knobs change behavior mechanically — fewer buffer
/// frames really do miss more, a smaller redo group really does checkpoint
/// more often, and an oversized one really fails to reserve disk space.
class MiniCdb : public env::DbInterface {
 public:
  MiniCdb(env::HardwareSpec hardware, MiniCdbOptions options = {});

  const knobs::KnobRegistry& registry() const override { return registry_; }
  const env::HardwareSpec& hardware() const override { return hardware_; }
  util::Status ApplyConfig(const knobs::Config& config) override;
  const knobs::Config& current_config() const override { return config_; }
  util::StatusOr<env::StressResult> RunStress(
      const workload::WorkloadSpec& spec, double duration_s) override;
  void Reset() override;
  /// Saves the config, counters, rng stream and crash count; restoring
  /// boots the engine on the restored config (see RestoreBinary in
  /// mini_cdb.cc for why the pages need no saving).
  void SaveBinary(persist::Encoder& enc) const override;
  util::Status RestoreBinary(persist::Decoder& dec) override;

  /// Simulates an engine crash (all buffered state lost, disk reverted to
  /// the last atomic checkpoint image) followed by recovery (replay of the
  /// journal's durable records). Updates whose redo was not yet durable —
  /// possible under innodb_flush_log_at_trx_commit = 0 or 2 — are lost;
  /// under policy 1, at most one un-fsynced group-commit window is.
  /// `replayed_out` (optional) receives the number of records re-applied.
  util::Status SimulateCrashAndRecover(size_t* replayed_out = nullptr);

  /// Engine internals, exposed for tests and examples.
  const BufferPool& buffer_pool() const { return *pool_; }
  const Wal& wal() const { return *wal_; }
  const BTree& btree() const { return *btree_; }
  double scale() const { return scale_; }
  /// The scale() of an instance built with `options`: its table's bytes over
  /// the full-size dataset's. Buffer frames and disk pages are at most
  /// this times the hardware's RAM and disk.
  static double ScaleFor(const MiniCdbOptions& options);
  int crash_count() const { return crash_count_; }

 private:
  /// Rebuild() + BulkLoad(): boots the instance on the current config.
  /// Returns kCrashed when it cannot start (memory overcommit, or a redo
  /// reservation that leaves no disk for the table).
  util::Status Restart();
  /// (Re)creates the engine stack from the current config. Returns
  /// kCrashed when the configuration cannot start (log reservation or
  /// memory overcommit).
  util::Status Rebuild();
  util::Status BulkLoad();
  /// Flushes everything and captures the crash-consistent image + metadata.
  util::Status TakeCheckpoint();
  void UpdateCounters(const workload::WorkloadSpec& spec, uint64_t txns,
                      uint64_t reads, uint64_t writes, uint64_t scans,
                      double duration_s, double admitted);

  env::HardwareSpec hardware_;
  MiniCdbOptions options_;
  knobs::KnobRegistry registry_;
  knobs::Config config_;
  double scale_;  // table bytes / reference bytes.

  VirtualClock clock_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<BTree> btree_;
  util::Rng rng_;
  env::MetricsSnapshot counters_{};
  int crash_count_ = 0;
  uint64_t next_insert_key_;

  /// Metadata captured with each checkpoint image, needed to re-attach the
  /// B+Tree after a crash.
  struct CheckpointMeta {
    PageId root = kInvalidPageId;
    size_t height = 1;
    size_t entries = 0;
    uint64_t next_key = 0;
  };
  CheckpointMeta checkpoint_meta_;
};

}  // namespace cdbtune::engine

#endif  // CDBTUNE_ENGINE_MINI_CDB_H_
