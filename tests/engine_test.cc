#include <cstring>
#include <set>

#include "gtest/gtest.h"
#include "engine/btree.h"
#include "engine/buffer_pool.h"
#include "engine/disk_manager.h"
#include "engine/mini_cdb.h"
#include "engine/page.h"
#include "engine/wal.h"
#include "util/check.h"
#include "util/random.h"

namespace cdbtune::engine {
namespace {

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

// --- VirtualClock / DiskManager ------------------------------------------------

TEST(DiskManagerTest, AllocateReadWriteRoundTrip) {
  VirtualClock clock;
  DiskManager disk(&clock, env::DiskType::kSsd, 10 * 1024 * 1024);
  auto id = disk.AllocatePage();
  ASSERT_TRUE(id.ok());
  char out[kPageSize];
  char in[kPageSize];
  std::memset(in, 0x5A, sizeof(in));
  ASSERT_TRUE(disk.WritePage(id.value(), in).ok());
  ASSERT_TRUE(disk.ReadPage(id.value(), out).ok());
  EXPECT_EQ(std::memcmp(in, out, kPageSize), 0);
  EXPECT_EQ(disk.reads_issued(), 1u);
  EXPECT_EQ(disk.writes_issued(), 1u);
}

TEST(DiskManagerTest, ChargesVirtualTime) {
  VirtualClock clock;
  DiskManager disk(&clock, env::DiskType::kSsd, 10 * 1024 * 1024);
  auto id = disk.AllocatePage();
  char buf[kPageSize] = {};
  VirtualNanos before = clock.now();
  ASSERT_TRUE(disk.ReadPage(id.value(), buf).ok());
  EXPECT_GT(clock.now(), before);
  before = clock.now();
  disk.Fsync();
  EXPECT_EQ(clock.now() - before, TimingsFor(env::DiskType::kSsd).fsync_ns);
}

TEST(DiskManagerTest, SequentialReadsAreCheaper) {
  VirtualClock clock;
  DiskManager disk(&clock, env::DiskType::kSsd, 100 * 1024 * 1024);
  std::vector<PageId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(disk.AllocatePage().value());
  char buf[kPageSize];
  ASSERT_TRUE(disk.ReadPage(ids[0], buf).ok());
  VirtualNanos before = clock.now();
  ASSERT_TRUE(disk.ReadPage(ids[1], buf).ok());  // Sequential.
  VirtualNanos sequential = clock.now() - before;
  before = clock.now();
  ASSERT_TRUE(disk.ReadPage(ids[7], buf).ok());  // Random.
  VirtualNanos random = clock.now() - before;
  EXPECT_LT(sequential, random);
}

TEST(DiskManagerTest, CapacityEnforced) {
  VirtualClock clock;
  DiskManager disk(&clock, env::DiskType::kSsd, 3 * kPageSize);
  EXPECT_TRUE(disk.AllocatePage().ok());
  EXPECT_TRUE(disk.AllocatePage().ok());
  EXPECT_TRUE(disk.AllocatePage().ok());
  EXPECT_FALSE(disk.AllocatePage().ok());
}

TEST(DiskManagerTest, LogReservationSharesCapacity) {
  VirtualClock clock;
  DiskManager disk(&clock, env::DiskType::kSsd, 4 * kPageSize);
  ASSERT_TRUE(disk.ReserveLogBytes(2 * kPageSize).ok());
  EXPECT_TRUE(disk.AllocatePage().ok());
  EXPECT_TRUE(disk.AllocatePage().ok());
  EXPECT_FALSE(disk.AllocatePage().ok());
  EXPECT_FALSE(disk.ReserveLogBytes(kPageSize).ok());
  disk.ReleaseLogBytes(2 * kPageSize);
  EXPECT_TRUE(disk.AllocatePage().ok());
}

TEST(DiskManagerTest, InvalidPageRejected) {
  VirtualClock clock;
  DiskManager disk(&clock, env::DiskType::kSsd, 10 * kPageSize);
  char buf[kPageSize];
  EXPECT_FALSE(disk.ReadPage(99, buf).ok());
  EXPECT_FALSE(disk.WritePage(99, buf).ok());
}

// --- Page -----------------------------------------------------------------------

TEST(PageTest, HeaderRoundTrip) {
  Page page;
  Page::Header h;
  h.page_id = 42;
  h.type = PageType::kBTreeLeaf;
  h.num_entries = 7;
  h.next_page = 43;
  page.set_header(h);
  Page::Header got = page.header();
  EXPECT_EQ(got.page_id, 42u);
  EXPECT_EQ(got.type, PageType::kBTreeLeaf);
  EXPECT_EQ(got.num_entries, 7u);
  EXPECT_EQ(got.next_page, 43u);
}

TEST(PageTest, LeafEntryRoundTrip) {
  Page page;
  char payload[kRecordPayload];
  std::memset(payload, 0x11, sizeof(payload));
  page.SetLeafEntry(3, 777, payload);
  uint64_t key;
  char out[kRecordPayload];
  page.LeafEntry(3, &key, out);
  EXPECT_EQ(key, 777u);
  EXPECT_EQ(std::memcmp(payload, out, kRecordPayload), 0);
  EXPECT_EQ(page.LeafKey(3), 777u);
}

TEST(PageTest, InternalEntryRoundTrip) {
  Page page;
  page.SetInternalEntry(2, 555, 9);
  EXPECT_EQ(page.InternalKey(2), 555u);
  EXPECT_EQ(page.InternalChild(2), 9u);
}

TEST(PageTest, ShiftMakesRoomForInsert) {
  Page page;
  char payload[kRecordPayload] = {};
  for (uint64_t i = 0; i < 5; ++i) page.SetLeafEntry(i, i * 10, payload);
  page.ShiftLeafEntries(2, 3, 1);  // Make room at slot 2.
  page.SetLeafEntry(2, 15, payload);
  EXPECT_EQ(page.LeafKey(1), 10u);
  EXPECT_EQ(page.LeafKey(2), 15u);
  EXPECT_EQ(page.LeafKey(3), 20u);
  EXPECT_EQ(page.LeafKey(5), 40u);
}

TEST(PageTest, CapacitiesAreSane) {
  EXPECT_GT(Page::kLeafCapacity, 100u);
  EXPECT_GT(Page::kInternalCapacity, 1000u);
  EXPECT_LE(Page::kHeaderSize + Page::kLeafCapacity * Page::kLeafEntrySize,
            kPageSize);
}

// --- BufferPool -------------------------------------------------------------------

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest()
      : disk_(&clock_, env::DiskType::kSsd, 1000 * kPageSize),
        pool_(&disk_, &clock_, 4) {}

  VirtualClock clock_;
  DiskManager disk_;
  BufferPool pool_;
};

TEST_F(BufferPoolTest, HitAndMissCounting) {
  PageId id;
  auto page = pool_.NewPage(&id);
  ASSERT_TRUE(page.ok());
  pool_.UnpinPage(id, true);
  EXPECT_EQ(pool_.misses(), 0u);
  auto again = pool_.FetchPage(id);
  ASSERT_TRUE(again.ok());
  pool_.UnpinPage(id, false);
  EXPECT_EQ(pool_.hits(), 1u);
}

TEST_F(BufferPoolTest, EvictionWritesBackDirtyPages) {
  std::vector<PageId> ids;
  char marker = 1;
  for (int i = 0; i < 6; ++i) {  // More pages than frames (4).
    PageId id;
    auto page = pool_.NewPage(&id);
    ASSERT_TRUE(page.ok());
    page.value()->raw()[100] = marker++;
    pool_.UnpinPage(id, true);
    ids.push_back(id);
  }
  EXPECT_GT(pool_.evictions(), 0u);
  // Re-reading the first page must see the persisted byte.
  auto page = pool_.FetchPage(ids[0]);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page.value()->raw()[100], 1);
  pool_.UnpinPage(ids[0], false);
}

TEST_F(BufferPoolTest, PinnedPagesCannotBeEvicted) {
  std::vector<PageId> ids(4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool_.NewPage(&ids[i]).ok());  // All stay pinned.
  }
  PageId extra;
  EXPECT_FALSE(pool_.NewPage(&extra).ok());  // No victim available.
  pool_.UnpinPage(ids[0], false);
  EXPECT_TRUE(pool_.NewPage(&extra).ok());
}

TEST_F(BufferPoolTest, FlushSomeHonorsBudget) {
  for (int i = 0; i < 4; ++i) {
    PageId id;
    ASSERT_TRUE(pool_.NewPage(&id).ok());
    pool_.UnpinPage(id, true);
  }
  EXPECT_EQ(pool_.dirty_pages(), 4u);
  EXPECT_EQ(pool_.FlushSome(2), 2u);
  EXPECT_EQ(pool_.dirty_pages(), 2u);
  ASSERT_TRUE(pool_.FlushAll().ok());
  EXPECT_EQ(pool_.dirty_pages(), 0u);
}

TEST_F(BufferPoolTest, ResizeDropsCacheButKeepsData) {
  PageId id;
  auto page = pool_.NewPage(&id);
  ASSERT_TRUE(page.ok());
  page.value()->raw()[5] = 77;
  pool_.UnpinPage(id, true);
  ASSERT_TRUE(pool_.Resize(8).ok());
  EXPECT_EQ(pool_.num_frames(), 8u);
  EXPECT_EQ(pool_.pages_cached(), 0u);
  auto reread = pool_.FetchPage(id);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread.value()->raw()[5], 77);
  pool_.UnpinPage(id, false);
}

TEST_F(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  std::vector<PageId> ids(4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool_.NewPage(&ids[i]).ok());
    pool_.UnpinPage(ids[i], false);
  }
  // Touch 0 so it becomes most-recent; 1 is now the LRU victim.
  ASSERT_TRUE(pool_.FetchPage(ids[0]).ok());
  pool_.UnpinPage(ids[0], false);
  PageId extra;
  ASSERT_TRUE(pool_.NewPage(&extra).ok());
  pool_.UnpinPage(extra, false);
  // Page 1 should be gone (miss on refetch), page 0 still cached.
  uint64_t misses_before = pool_.misses();
  (void)pool_.FetchPage(ids[0]).value();
  pool_.UnpinPage(ids[0], false);
  EXPECT_EQ(pool_.misses(), misses_before);
}

// --- WAL ---------------------------------------------------------------------------

TEST(WalTest, ReservationFailsOnSmallDisk) {
  VirtualClock clock;
  DiskManager disk(&clock, env::DiskType::kSsd, 10 * kPageSize);
  WalOptions options;
  options.file_size_bytes = 1024 * 1024;
  options.files_in_group = 4;
  auto wal = Wal::Create(&disk, &clock, options);
  EXPECT_FALSE(wal.ok());
}

TEST(WalTest, DestructorReleasesReservation) {
  VirtualClock clock;
  DiskManager disk(&clock, env::DiskType::kSsd, 1024 * 1024);
  WalOptions options;
  options.file_size_bytes = 256 * 1024;
  options.files_in_group = 2;
  {
    auto wal = Wal::Create(&disk, &clock, options);
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ(disk.used_bytes(), 512u * 1024);
  }
  EXPECT_EQ(disk.used_bytes(), 0u);
}

TEST(WalTest, FsyncPerCommitGroupCommits) {
  VirtualClock clock;
  DiskManager disk(&clock, env::DiskType::kSsd, 100 * 1024 * 1024);
  WalOptions options;
  options.flush_policy = WalFlushPolicy::kFsyncPerCommit;
  options.group_commit_size = 4;
  auto wal = Wal::Create(&disk, &clock, options).value();
  for (int i = 0; i < 16; ++i) {
    wal->Append(300);
    wal->Commit();
  }
  EXPECT_EQ(wal->fsyncs(), 4u);  // 16 commits / group of 4.
}

TEST(WalTest, LazyPolicySkipsFsyncs) {
  VirtualClock clock;
  DiskManager disk(&clock, env::DiskType::kSsd, 100 * 1024 * 1024);
  WalOptions options;
  options.flush_policy = WalFlushPolicy::kLazy;
  auto wal = Wal::Create(&disk, &clock, options).value();
  for (int i = 0; i < 100; ++i) {
    wal->Append(300);
    wal->Commit();
  }
  EXPECT_EQ(wal->fsyncs(), 0u);
}

TEST(WalTest, SmallBufferCausesLogWaits) {
  VirtualClock clock;
  DiskManager disk(&clock, env::DiskType::kSsd, 100 * 1024 * 1024);
  WalOptions options;
  options.log_buffer_bytes = 1024;
  auto wal = Wal::Create(&disk, &clock, options).value();
  for (int i = 0; i < 100; ++i) wal->Append(300);
  EXPECT_GT(wal->log_waits(), 0u);
}

TEST(WalTest, CheckpointTriggersOnFill) {
  VirtualClock clock;
  DiskManager disk(&clock, env::DiskType::kSsd, 100 * 1024 * 1024);
  WalOptions options;
  options.file_size_bytes = 64 * 1024;
  options.files_in_group = 2;
  auto wal = Wal::Create(&disk, &clock, options).value();
  EXPECT_FALSE(wal->NeedsCheckpoint());
  int appends = 0;
  while (!wal->NeedsCheckpoint() && appends < 10000) {
    wal->Append(300);
    ++appends;
  }
  EXPECT_TRUE(wal->NeedsCheckpoint());
  // ~0.8 * 128 KiB / 300 B.
  EXPECT_NEAR(appends, 0.8 * 128 * 1024 / 300, 30);
  wal->CheckpointComplete();
  EXPECT_FALSE(wal->NeedsCheckpoint());
  EXPECT_EQ(wal->checkpoints(), 1u);
}

// --- BTree -----------------------------------------------------------------------

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest()
      : disk_(&clock_, env::DiskType::kSsd, 100000 * kPageSize),
        pool_(&disk_, &clock_, 256) {
    tree_ = BTree::Create(&pool_).value();
  }

  void InsertKey(uint64_t key) {
    char payload[kRecordPayload];
    std::memset(payload, static_cast<int>(key & 0xFF), sizeof(payload));
    ASSERT_TRUE(tree_->Insert(key, payload).ok());
  }

  VirtualClock clock_;
  DiskManager disk_;
  BufferPool pool_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, InsertAndGet) {
  InsertKey(5);
  InsertKey(3);
  InsertKey(8);
  char payload[kRecordPayload];
  auto found = tree_->Get(5, payload);
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(found.value());
  EXPECT_EQ(payload[0], 5);
  EXPECT_FALSE(tree_->Get(99, nullptr).value());
  EXPECT_EQ(tree_->num_entries(), 3u);
}

TEST_F(BTreeTest, UpdateExistingOnly) {
  InsertKey(10);
  char new_payload[kRecordPayload];
  std::memset(new_payload, 0x77, sizeof(new_payload));
  EXPECT_TRUE(tree_->Update(10, new_payload).value());
  char out[kRecordPayload];
  tree_->Get(10, out).value();
  EXPECT_EQ(out[0], 0x77);
  EXPECT_FALSE(tree_->Update(11, new_payload).value());
  EXPECT_EQ(tree_->num_entries(), 1u);
}

TEST_F(BTreeTest, DuplicateInsertOverwrites) {
  InsertKey(10);
  char other[kRecordPayload];
  std::memset(other, 0x42, sizeof(other));
  ASSERT_TRUE(tree_->Insert(10, other).ok());
  EXPECT_EQ(tree_->num_entries(), 1u);
  char out[kRecordPayload];
  tree_->Get(10, out).value();
  EXPECT_EQ(out[0], 0x42);
}

TEST_F(BTreeTest, ScanVisitsOrderedRange) {
  for (uint64_t k = 0; k < 500; ++k) InsertKey(k * 2);  // Even keys.
  EXPECT_EQ(tree_->Scan(100, 50).value(), 50u);
  EXPECT_EQ(tree_->Scan(900, 1000).value(), 500u - 450u);
  EXPECT_EQ(tree_->Scan(5000, 10).value(), 0u);
}

TEST_F(BTreeTest, SplitsGrowTheTree) {
  // Enough sequential inserts to force several leaf splits and a root split.
  for (uint64_t k = 0; k < 3 * Page::kLeafCapacity; ++k) InsertKey(k);
  EXPECT_GE(tree_->height(), 2u);
  EXPECT_TRUE(tree_->CheckInvariants().ok());
  for (uint64_t k = 0; k < 3 * Page::kLeafCapacity; k += 17) {
    EXPECT_TRUE(tree_->Get(k, nullptr).value()) << k;
  }
}

TEST_F(BTreeTest, DeleteRemovesAndIsIdempotent) {
  for (uint64_t k = 0; k < 100; ++k) InsertKey(k);
  EXPECT_TRUE(tree_->Delete(50).value());
  EXPECT_FALSE(tree_->Get(50, nullptr).value());
  EXPECT_FALSE(tree_->Delete(50).value());  // Already gone.
  EXPECT_EQ(tree_->num_entries(), 99u);
  EXPECT_TRUE(tree_->CheckInvariants().ok());
  // Neighbors survive.
  EXPECT_TRUE(tree_->Get(49, nullptr).value());
  EXPECT_TRUE(tree_->Get(51, nullptr).value());
  // Scans skip the removed slot.
  EXPECT_EQ(tree_->Scan(0, 1000).value(), 99u);
  // Re-inserting reclaims the slot.
  InsertKey(50);
  EXPECT_TRUE(tree_->Get(50, nullptr).value());
  EXPECT_EQ(tree_->num_entries(), 100u);
}

TEST_F(BTreeTest, DeleteAcrossSplitLeaves) {
  const uint64_t n = 2 * Page::kLeafCapacity + 10;
  for (uint64_t k = 0; k < n; ++k) InsertKey(k);
  // Delete every third key, spanning several leaves.
  size_t deleted = 0;
  for (uint64_t k = 0; k < n; k += 3) {
    ASSERT_TRUE(tree_->Delete(k).value()) << k;
    ++deleted;
  }
  EXPECT_EQ(tree_->num_entries(), n - deleted);
  EXPECT_TRUE(tree_->CheckInvariants().ok());
  EXPECT_EQ(tree_->Scan(0, n).value(), n - deleted);
}

struct BTreeParam {
  size_t n;
  uint64_t seed;
  bool sequential;
};

class BTreePropertyTest : public ::testing::TestWithParam<BTreeParam> {};

TEST_P(BTreePropertyTest, InvariantsHoldUnderInsertionPattern) {
  BTreeParam param = GetParam();
  VirtualClock clock;
  DiskManager disk(&clock, env::DiskType::kSsd, 200000 * kPageSize);
  BufferPool pool(&disk, &clock, 512);
  auto tree = BTree::Create(&pool).value();

  std::vector<uint64_t> keys(param.n);
  for (size_t i = 0; i < param.n; ++i) keys[i] = i * 3 + 1;
  util::Rng rng(param.seed);
  if (!param.sequential) rng.Shuffle(keys);

  char payload[kRecordPayload] = {};
  for (uint64_t k : keys) {
    ASSERT_TRUE(tree->Insert(k, payload).ok());
  }
  EXPECT_EQ(tree->num_entries(), param.n);
  ASSERT_TRUE(tree->CheckInvariants().ok());

  // Every inserted key is found; neighbors are not.
  util::Rng probe(param.seed + 1);
  for (int i = 0; i < 200; ++i) {
    uint64_t k = keys[static_cast<size_t>(
        probe.UniformInt(0, static_cast<int64_t>(param.n) - 1))];
    EXPECT_TRUE(tree->Get(k, nullptr).value());
    EXPECT_FALSE(tree->Get(k + 1, nullptr).value());
  }
  // Full scan sees exactly n entries.
  EXPECT_EQ(tree->Scan(0, param.n * 2).value(), param.n);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, BTreePropertyTest,
    ::testing::Values(BTreeParam{100, 1, true}, BTreeParam{100, 1, false},
                      BTreeParam{1000, 2, false}, BTreeParam{5000, 3, false},
                      BTreeParam{5000, 4, true}, BTreeParam{20000, 5, false}));

// --- MiniCdb -----------------------------------------------------------------------

TEST(MiniCdbTest, StressProducesPlausibleMetrics) {
  MiniCdbOptions options;
  options.table_rows = 20000;
  MiniCdb db(env::CdbA(), options);
  auto result = db.RunStress(workload::SysbenchReadWrite(), 150.0);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().external.throughput_tps, 0.0);
  EXPECT_GT(result.value().external.latency_p99_ms,
            result.value().external.latency_mean_ms * 0.99);
  // Commits counter moved.
  EXPECT_GT(result.value().after[env::metric_index::kComCommit],
            result.value().before[env::metric_index::kComCommit]);
}

TEST(MiniCdbTest, BiggerBufferPoolReducesMissRate) {
  MiniCdbOptions options;
  options.table_rows = 20000;
  MiniCdb db(env::CdbA(), options);
  auto& reg = db.registry();
  auto w = workload::SysbenchReadOnly();

  knobs::Config small = reg.DefaultConfig();
  small[*reg.FindIndex("innodb_buffer_pool_size")] = 64.0 * 1024 * 1024;
  ASSERT_TRUE(db.ApplyConfig(small).ok());
  auto r1 = db.RunStress(w, 150.0).value();
  double misses_small = r1.after[env::metric_index::kBpReads] -
                        r1.before[env::metric_index::kBpReads];

  knobs::Config big = reg.DefaultConfig();
  big[*reg.FindIndex("innodb_buffer_pool_size")] = 6.0 * kGiB;
  ASSERT_TRUE(db.ApplyConfig(big).ok());
  auto r2 = db.RunStress(w, 150.0).value();
  double misses_big = r2.after[env::metric_index::kBpReads] -
                      r2.before[env::metric_index::kBpReads];
  EXPECT_LT(misses_big, misses_small);
  EXPECT_GT(r2.external.throughput_tps, r1.external.throughput_tps);
}

TEST(MiniCdbTest, DurabilityPolicyChangesFsyncRate) {
  MiniCdbOptions options;
  options.table_rows = 20000;
  MiniCdb db(env::CdbA(), options);
  auto& reg = db.registry();
  auto w = workload::SysbenchWriteOnly();

  knobs::Config strict = reg.DefaultConfig();
  strict[*reg.FindIndex("innodb_flush_log_at_trx_commit")] = 1;
  ASSERT_TRUE(db.ApplyConfig(strict).ok());
  auto r1 = db.RunStress(w, 150.0).value();
  double fsyncs_strict = r1.after[env::metric_index::kOsLogFsyncs] -
                         r1.before[env::metric_index::kOsLogFsyncs];

  knobs::Config lazy = reg.DefaultConfig();
  lazy[*reg.FindIndex("innodb_flush_log_at_trx_commit")] = 0;
  ASSERT_TRUE(db.ApplyConfig(lazy).ok());
  auto r2 = db.RunStress(w, 150.0).value();
  double fsyncs_lazy = r2.after[env::metric_index::kOsLogFsyncs] -
                       r2.before[env::metric_index::kOsLogFsyncs];
  EXPECT_GT(fsyncs_strict, fsyncs_lazy);
  EXPECT_GE(r2.external.throughput_tps, r1.external.throughput_tps);
}

TEST(MiniCdbTest, OversizedRedoCrashesAndRecovers) {
  MiniCdbOptions options;
  options.table_rows = 5000;
  MiniCdb db(env::CdbA(), options);
  auto& reg = db.registry();
  knobs::Config bad = reg.DefaultConfig();
  bad[*reg.FindIndex("innodb_log_file_size")] = 16.0 * kGiB;
  bad[*reg.FindIndex("innodb_log_files_in_group")] = 16;
  util::Status s = db.ApplyConfig(bad);
  EXPECT_EQ(s.code(), util::StatusCode::kCrashed);
  EXPECT_EQ(db.crash_count(), 1);
  // The instance restarted on the previous config and still serves.
  auto r = db.RunStress(workload::SysbenchReadWrite(), 150.0);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().external.throughput_tps, 0.0);
}

// Regression: a redo group that reserves its disk space but leaves too
// little for the table used to half-load the instance and keep the bad
// config as "previous"; the next crash then recovered onto it, failed the
// bulk load again, and aborted the whole process (one tenant's STEP took
// down every tenant of the tuning server).
TEST(MiniCdbTest, RedoThatStarvesTheTableCrashesAndRecovers) {
  MiniCdbOptions options;
  options.table_rows = 5000;
  MiniCdb db(env::CdbA(), options);  // 100 GB disk.
  auto& reg = db.registry();
  const knobs::Config healthy = db.current_config();

  // 12 x 8 GiB of redo fits the disk alone, but not beside the table.
  knobs::Config starving = healthy;
  starving[*reg.FindIndex("innodb_log_file_size")] = 8.0 * kGiB;
  starving[*reg.FindIndex("innodb_log_files_in_group")] = 12;
  EXPECT_EQ(db.ApplyConfig(starving).code(), util::StatusCode::kCrashed);
  EXPECT_EQ(db.crash_count(), 1);
  EXPECT_EQ(db.current_config(), healthy);

  // A later crash must recover onto the healthy config, not the starving.
  knobs::Config oom = healthy;
  oom[*reg.FindIndex("innodb_buffer_pool_size")] = 64.0 * kGiB;
  EXPECT_EQ(db.ApplyConfig(oom).code(), util::StatusCode::kCrashed);
  EXPECT_EQ(db.crash_count(), 2);
  EXPECT_EQ(db.current_config(), healthy);
  auto r = db.RunStress(workload::Tpcc(), 60.0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r.value().external.throughput_tps, 0.0);
}

TEST(WalTest, DurableLsnAdvancesOnlyOnFsync) {
  VirtualClock clock;
  DiskManager disk(&clock, env::DiskType::kSsd, 100 * 1024 * 1024);
  WalOptions options;
  options.flush_policy = WalFlushPolicy::kFsyncPerCommit;
  options.group_commit_size = 4;
  auto wal = Wal::Create(&disk, &clock, options).value();
  char payload[kRecordPayload] = {};
  for (int i = 0; i < 3; ++i) {
    wal->AppendRecord(i, false, payload, 300);
    wal->Commit();
  }
  EXPECT_EQ(wal->durable_lsn(), 0u);  // Group of 4 not yet complete.
  wal->AppendRecord(3, false, payload, 300);
  wal->Commit();
  EXPECT_EQ(wal->durable_lsn(), 4u);  // Group fsync covered everything.
}

TEST(WalTest, MakeDurableUpToForcesLogFlush) {
  VirtualClock clock;
  DiskManager disk(&clock, env::DiskType::kSsd, 100 * 1024 * 1024);
  WalOptions options;
  options.flush_policy = WalFlushPolicy::kLazy;
  auto wal = Wal::Create(&disk, &clock, options).value();
  char payload[kRecordPayload] = {};
  uint64_t lsn = wal->AppendRecord(7, true, payload, 300);
  EXPECT_LT(wal->durable_lsn(), lsn);
  wal->MakeDurableUpTo(lsn);  // The WAL-before-data rule in action.
  EXPECT_GE(wal->durable_lsn(), lsn);
  EXPECT_EQ(wal->fsyncs(), 1u);
}

TEST(WalTest, RecoverableRecordsRespectDurabilityAndCheckpoint) {
  VirtualClock clock;
  DiskManager disk(&clock, env::DiskType::kSsd, 100 * 1024 * 1024);
  WalOptions options;
  options.flush_policy = WalFlushPolicy::kLazy;
  auto wal = Wal::Create(&disk, &clock, options).value();
  char payload[kRecordPayload] = {};
  wal->AppendRecord(1, false, payload, 300);
  wal->AppendRecord(2, false, payload, 300);
  wal->MakeDurableUpTo(wal->lsn());
  wal->AppendRecord(3, false, payload, 300);  // Never made durable.
  EXPECT_EQ(wal->RecoverableRecords().size(), 2u);
  wal->CheckpointComplete();  // Fsyncs and truncates the journal.
  EXPECT_EQ(wal->RecoverableRecords().size(), 0u);
}

TEST(MiniCdbTest, CrashRecoveryKeepsDurableUpdates) {
  // Strict durability (policy 1): after a crash, every group-committed
  // update survives recovery.
  MiniCdbOptions options;
  options.table_rows = 10000;
  MiniCdb db(env::CdbA(), options);
  auto& reg = db.registry();
  knobs::Config strict = reg.DefaultConfig();
  strict[*reg.FindIndex("innodb_flush_log_at_trx_commit")] = 1;
  ASSERT_TRUE(db.ApplyConfig(strict).ok());

  auto before = db.RunStress(workload::SysbenchWriteOnly(), 150.0).value();
  double commits = before.after[env::metric_index::kComCommit] -
                   before.before[env::metric_index::kComCommit];
  ASSERT_GT(commits, 0.0);
  uint64_t durable = db.wal().durable_lsn();
  uint64_t total = db.wal().lsn();
  size_t entries_before = db.btree().num_entries();

  size_t replayed = 0;
  ASSERT_TRUE(db.SimulateCrashAndRecover(&replayed).ok());
  // Everything durable came back; only the sub-group tail could be lost.
  EXPECT_GT(replayed, 0u);
  EXPECT_GE(durable + 64, total);  // Policy 1: tail bounded by group size.
  EXPECT_TRUE(const_cast<BTree&>(db.btree()).CheckInvariants().ok());
  // Inserts beyond the durable horizon may be lost; entry count is within
  // the lost-tail bound.
  EXPECT_GE(db.btree().num_entries() + 64, entries_before);

  // The recovered engine still serves traffic.
  auto after = db.RunStress(workload::SysbenchReadWrite(), 150.0);
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after.value().external.throughput_tps, 0.0);
}

TEST(MiniCdbTest, LazyDurabilityLosesMoreThanStrict) {
  // The real risk behind innodb_flush_log_at_trx_commit = 0: a crash
  // discards every redo record that never reached the device.
  auto run = [](double policy) {
    MiniCdbOptions options;
    options.table_rows = 10000;
    options.seed = 17;
    MiniCdb db(env::CdbA(), options);
    auto& reg = db.registry();
    knobs::Config config = reg.DefaultConfig();
    config[*reg.FindIndex("innodb_flush_log_at_trx_commit")] = policy;
    // A large redo group so no checkpoint truncates the journal mid-run.
    config[*reg.FindIndex("innodb_log_file_size")] =
        4.0 * 1024 * 1024 * 1024;
    CDBTUNE_CHECK_OK(db.ApplyConfig(config));
    db.RunStress(workload::SysbenchWriteOnly(), 150.0).value();
    uint64_t lost = db.wal().lsn() - db.wal().durable_lsn();
    size_t replayed = 0;
    CDBTUNE_CHECK_OK(db.SimulateCrashAndRecover(&replayed));
    return std::pair<uint64_t, size_t>(lost, replayed);
  };
  auto [lost_strict, replayed_strict] = run(1);
  auto [lost_lazy, replayed_lazy] = run(0);
  EXPECT_LT(lost_strict, 64u);       // At most one group-commit window.
  EXPECT_GT(lost_lazy, lost_strict); // Lazy loses a real tail.
}

TEST(MiniCdbTest, ImplementsDbInterfacePolymorphically) {
  MiniCdbOptions options;
  options.table_rows = 5000;
  MiniCdb mini(env::CdbA(), options);
  env::DbInterface& db = mini;
  EXPECT_EQ(db.registry().TunableIndices().size(), knobs::kMysqlTunableKnobs);
  EXPECT_EQ(db.hardware().name, "CDB-A");
  db.Reset();
  EXPECT_TRUE(db.RunStress(workload::Tpcc(), 150.0).ok());
}

}  // namespace
}  // namespace cdbtune::engine
