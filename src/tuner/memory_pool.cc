#include "tuner/memory_pool.h"

#include <utility>

#include "util/check.h"

namespace cdbtune::tuner {

void SaveExperienceBinary(persist::Encoder& enc, const Experience& e) {
  rl::SaveTransitionBinary(enc, e.transition);
  enc.WriteString(e.workload_name);
  enc.WriteString(e.instance_name);
  enc.WriteBool(e.from_user_request);
  enc.WriteDouble(e.throughput);
  enc.WriteDouble(e.latency);
}

util::Status LoadExperienceBinary(persist::Decoder& dec, Experience* out,
                                  size_t state_dim, size_t action_dim) {
  Experience e;
  CDBTUNE_RETURN_IF_ERROR(
      rl::LoadTransitionBinary(dec, &e.transition, state_dim, action_dim));
  if (!dec.ReadString(&e.workload_name) || !dec.ReadString(&e.instance_name) ||
      !dec.ReadBool(&e.from_user_request) || !dec.ReadDouble(&e.throughput) ||
      !dec.ReadDouble(&e.latency)) {
    return dec.status();
  }
  *out = std::move(e);
  return util::Status::Ok();
}

void MemoryPool::Add(Experience experience) {
  experiences_.push_back(std::move(experience));
}

void MemoryPool::FeedInto(rl::ReplayBuffer& buffer) const {
  for (const Experience& e : experiences_) {
    buffer.Add(e.transition);
  }
}

size_t MemoryPool::user_request_count() const {
  size_t n = 0;
  for (const Experience& e : experiences_) {
    if (e.from_user_request) ++n;
  }
  return n;
}

ShardedExperiencePool::ShardedExperiencePool(size_t num_shards,
                                             size_t shard_capacity)
    : capacity_(shard_capacity), shards_(num_shards) {
  CDBTUNE_CHECK(num_shards > 0) << "pool needs at least one shard";
  CDBTUNE_CHECK(shard_capacity > 0) << "shard capacity must be positive";
  for (Shard& shard : shards_) shard.ring.resize(capacity_);
}

void ShardedExperiencePool::Add(size_t shard, Experience experience) {
  CDBTUNE_CHECK(shard < shards_.size()) << "shard out of range";
  Shard& s = shards_[shard];
  s.ring[s.added % capacity_] = std::move(experience);
  ++s.added;
}

size_t ShardedExperiencePool::shard_size(size_t shard) const {
  CDBTUNE_CHECK(shard < shards_.size()) << "shard out of range";
  const Shard& s = shards_[shard];
  return static_cast<size_t>(s.added < capacity_ ? s.added : capacity_);
}

uint64_t ShardedExperiencePool::total_added() const {
  uint64_t n = 0;
  for (const Shard& s : shards_) n += s.added;
  return n;
}

uint64_t ShardedExperiencePool::total_dropped() const {
  uint64_t n = 0;
  for (const Shard& s : shards_) n += s.dropped;
  return n;
}

std::vector<Experience> ShardedExperiencePool::CollectNew() {
  std::vector<Experience> out;
  for (Shard& s : shards_) {
    // Entries the ring already overwrote are gone; account for them so the
    // caller can see the loss, then copy the survivors in arrival order.
    if (s.added - s.merged > capacity_) {
      uint64_t lost = s.added - s.merged - capacity_;
      s.dropped += lost;
      s.merged += lost;
    }
    for (uint64_t seq = s.merged; seq < s.added; ++seq) {
      out.push_back(s.ring[seq % capacity_]);
    }
    s.merged = s.added;
  }
  return out;
}

void ShardedExperiencePool::SnapshotInto(MemoryPool* pool) const {
  CDBTUNE_CHECK(pool != nullptr);
  for (const Shard& s : shards_) {
    uint64_t first = s.added < capacity_ ? 0 : s.added - capacity_;
    for (uint64_t seq = first; seq < s.added; ++seq) {
      pool->Add(s.ring[seq % capacity_]);
    }
  }
}

void ShardedExperiencePool::SaveBinary(persist::Encoder& enc) const {
  enc.WriteU64(shards_.size());
  enc.WriteU64(capacity_);
  for (const Shard& s : shards_) {
    enc.WriteU64(s.added);
    enc.WriteU64(s.merged);
    enc.WriteU64(s.dropped);
    // Retained window in arrival order; re-placed at seq % capacity on load,
    // which reconstructs the ring array exactly (unwritten slots stay
    // default, as after construction).
    uint64_t first = s.added < capacity_ ? 0 : s.added - capacity_;
    for (uint64_t seq = first; seq < s.added; ++seq) {
      SaveExperienceBinary(enc, s.ring[seq % capacity_]);
    }
  }
}

util::Status ShardedExperiencePool::LoadBinary(persist::Decoder& dec,
                                               size_t state_dim,
                                               size_t action_dim) {
  uint64_t num_shards = 0, capacity = 0;
  if (!dec.ReadU64(&num_shards) || !dec.ReadU64(&capacity)) {
    return dec.status();
  }
  if (num_shards != shards_.size() || capacity != capacity_) {
    return util::Status::DataLoss(
        "experience pool checkpoint shape mismatch: file " +
        std::to_string(num_shards) + "x" + std::to_string(capacity) +
        " vs live " + std::to_string(shards_.size()) + "x" +
        std::to_string(capacity_));
  }
  std::vector<Shard> staged(shards_.size());
  for (Shard& s : staged) {
    s.ring.resize(capacity_);
    if (!dec.ReadU64(&s.added) || !dec.ReadU64(&s.merged) ||
        !dec.ReadU64(&s.dropped)) {
      return dec.status();
    }
    if (s.merged > s.added || s.dropped > s.merged) {
      return util::Status::DataLoss("experience pool cursor invariant broken");
    }
    uint64_t first = s.added < capacity_ ? 0 : s.added - capacity_;
    for (uint64_t seq = first; seq < s.added; ++seq) {
      CDBTUNE_RETURN_IF_ERROR(LoadExperienceBinary(
          dec, &s.ring[seq % capacity_], state_dim, action_dim));
    }
  }
  shards_ = std::move(staged);
  return util::Status::Ok();
}

}  // namespace cdbtune::tuner
