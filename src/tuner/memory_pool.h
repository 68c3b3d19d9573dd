#ifndef CDBTUNE_TUNER_MEMORY_POOL_H_
#define CDBTUNE_TUNER_MEMORY_POOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "persist/encoding.h"
#include "rl/replay.h"
#include "util/status.h"

namespace cdbtune::tuner {

/// One fully-annotated tuning experience, as the paper's Memory Pool stores
/// it (Section 2.2.4): the RL transition plus the provenance needed for
/// incremental training and analysis.
struct Experience {
  rl::Transition transition;
  std::string workload_name;
  std::string instance_name;
  /// True when this sample came from an online user request rather than
  /// offline cold-start training (Section 2.1.1, Incremental Training).
  bool from_user_request = false;
  double throughput = 0.0;
  double latency = 0.0;
};

/// Bit-exact Experience codec used by the pool checkpoints. The load
/// checks the transition's shape (rl::LoadTransitionBinary).
void SaveExperienceBinary(persist::Encoder& enc, const Experience& e);
util::Status LoadExperienceBinary(persist::Decoder& dec, Experience* out,
                                  size_t state_dim, size_t action_dim);

/// Append-only experience store that outlives individual agents. The DDPG
/// agent keeps its own sampling structure (sum-tree); the pool is the
/// durable record that can re-seed a fresh agent — e.g., when the Table 6
/// benchmark rebuilds networks of different shapes over the same data, or
/// when user feedback is folded back in.
class MemoryPool {
 public:
  void Add(Experience experience);

  size_t size() const { return experiences_.size(); }
  const Experience& at(size_t i) const { return experiences_[i]; }

  /// Replays every stored transition into `buffer` (cheapest way to warm up
  /// a new agent from accumulated history).
  void FeedInto(rl::ReplayBuffer& buffer) const;

  /// Number of experiences contributed by online user requests.
  size_t user_request_count() const;

  void Clear() { experiences_.clear(); }

 private:
  std::vector<Experience> experiences_;
};

/// Mutex-free sharded experience pool for the multi-session tuning server:
/// every concurrent tenant writes its own shard's fixed-capacity ring, and
/// the trainer merges all shards at a barrier. Thread safety comes from
/// ownership, not locks — the contract is:
///
///   - Add(shard, ...) is called by exactly one thread per shard at a time
///     (each open session owns one shard slot);
///   - Add() calls on *different* shards may run concurrently (shards are
///     cache-line aligned so writers never false-share);
///   - CollectNew() / SnapshotInto() / the counters run only at a barrier,
///     i.e. while no Add() is in flight on any shard (the server steps
///     sessions in rounds and trains between rounds).
///
/// CollectNew() visits shards in index order and each shard's experiences
/// in arrival order, so the merged stream — and therefore everything the
/// shared agent learns from it — is deterministic regardless of how session
/// steps were scheduled across threads.
class ShardedExperiencePool {
 public:
  ShardedExperiencePool(size_t num_shards, size_t shard_capacity);

  /// Appends to `shard`'s ring, overwriting its oldest entry when full.
  void Add(size_t shard, Experience experience);

  size_t num_shards() const { return shards_.size(); }
  size_t shard_capacity() const { return capacity_; }

  /// Experiences currently retained in `shard` (at most shard_capacity).
  size_t shard_size(size_t shard) const;

  /// Total experiences ever added across all shards (barrier-only).
  uint64_t total_added() const;

  /// Experiences overwritten before any CollectNew() saw them — a slow
  /// trainer loses the ring's oldest entries, never blocks a writer.
  uint64_t total_dropped() const;

  /// Copies every experience added since the previous CollectNew() — in
  /// (shard index, arrival) order — and advances the merge cursors.
  std::vector<Experience> CollectNew();

  /// Copies every retained experience into `pool` in deterministic order
  /// (used to warm-start a fresh agent from the server's history).
  void SnapshotInto(MemoryPool* pool) const;

  /// Bit-exact checkpoint round-trip of every shard: retained ring window,
  /// cursors and drop counters. Barrier-only, like the other readers.
  /// LoadBinary requires an identically-shaped pool (same shard count and
  /// capacity) and experiences shaped for the agent the pool feeds
  /// (`state_dim`, `action_dim`), and restores every shard or none.
  void SaveBinary(persist::Encoder& enc) const;
  util::Status LoadBinary(persist::Decoder& dec, size_t state_dim,
                          size_t action_dim);

 private:
  /// One tenant's ring. alignas keeps concurrent writers of neighboring
  /// shards off each other's cache lines.
  struct alignas(64) Shard {
    std::vector<Experience> ring;
    uint64_t added = 0;    // Total experiences ever written.
    uint64_t merged = 0;   // Consumed by CollectNew (includes dropped).
    uint64_t dropped = 0;  // Overwritten before a merge saw them.
  };

  size_t capacity_;
  std::vector<Shard> shards_;
};

}  // namespace cdbtune::tuner

#endif  // CDBTUNE_TUNER_MEMORY_POOL_H_
