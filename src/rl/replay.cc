#include "rl/replay.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/thread_pool.h"

namespace cdbtune::rl {

void ReplayBuffer::UpdatePriorities(const std::vector<size_t>&,
                                    const std::vector<double>&) {}

void SaveTransitionBinary(persist::Encoder& enc, const Transition& t) {
  enc.WriteDoubleVec(t.state);
  enc.WriteDoubleVec(t.action);
  enc.WriteDouble(t.reward);
  enc.WriteDoubleVec(t.next_state);
  enc.WriteBool(t.terminal);
}

util::Status LoadTransitionBinary(persist::Decoder& dec, Transition* out,
                                  size_t state_dim, size_t action_dim) {
  Transition t;
  if (!dec.ReadDoubleVec(&t.state) || !dec.ReadDoubleVec(&t.action) ||
      !dec.ReadDouble(&t.reward) || !dec.ReadDoubleVec(&t.next_state) ||
      !dec.ReadBool(&t.terminal)) {
    return dec.status();
  }
  if (t.state.size() != state_dim || t.next_state.size() != state_dim ||
      t.action.size() != action_dim) {
    return util::Status::DataLoss(
        "checkpoint transition has state/action/next_state dimensions " +
        std::to_string(t.state.size()) + "/" + std::to_string(t.action.size()) +
        "/" + std::to_string(t.next_state.size()) + ", expected " +
        std::to_string(state_dim) + "/" + std::to_string(action_dim) + "/" +
        std::to_string(state_dim));
  }
  *out = std::move(t);
  return util::Status::Ok();
}

namespace {

/// A ring fills its slots in order before it wraps, so while it holds fewer
/// than `capacity` items its cursor is at the end. Both replays grow by
/// push_back and depend on this.
util::Status CheckRingCursor(uint64_t capacity, uint64_t next, uint64_t size) {
  if (size > capacity || next >= capacity) {
    return util::Status::DataLoss("replay checkpoint cursor out of range");
  }
  if (size < capacity && next != size) {
    return util::Status::DataLoss(
        "replay checkpoint cursor " + std::to_string(next) +
        " is not at the end of its " + std::to_string(size) + " items");
  }
  return util::Status::Ok();
}

}  // namespace

UniformReplay::UniformReplay(size_t capacity) : capacity_(capacity) {
  CDBTUNE_CHECK(capacity > 0) << "replay capacity must be positive";
  items_.reserve(capacity);
}

void UniformReplay::Add(Transition transition) {
  if (items_.size() < capacity_) {
    items_.push_back(std::move(transition));
  } else {
    items_[next_] = std::move(transition);
  }
  next_ = (next_ + 1) % capacity_;
}

void UniformReplay::SaveBinary(persist::Encoder& enc) const {
  enc.WriteString("uniform");
  enc.WriteU64(capacity_);
  enc.WriteU64(next_);
  enc.WriteU64(items_.size());
  for (const Transition& t : items_) SaveTransitionBinary(enc, t);
}

util::Status UniformReplay::LoadBinary(persist::Decoder& dec,
                                       size_t state_dim, size_t action_dim) {
  std::string tag;
  uint64_t capacity = 0, next = 0, count = 0;
  if (!dec.ReadString(&tag) || !dec.ReadU64(&capacity) ||
      !dec.ReadU64(&next) || !dec.ReadU64(&count)) {
    return dec.status();
  }
  if (tag != "uniform" || capacity != capacity_) {
    return util::Status::DataLoss("uniform replay checkpoint mismatch");
  }
  CDBTUNE_RETURN_IF_ERROR(CheckRingCursor(capacity, next, count));
  std::vector<Transition> items(count);
  for (Transition& t : items) {
    CDBTUNE_RETURN_IF_ERROR(
        LoadTransitionBinary(dec, &t, state_dim, action_dim));
  }
  items_ = std::move(items);
  next_ = next;
  return util::Status::Ok();
}

SampleBatch UniformReplay::Sample(size_t batch_size, util::Rng& rng) {
  CDBTUNE_CHECK(!items_.empty()) << "sampling from empty replay";
  SampleBatch batch;
  batch.indices.reserve(batch_size);
  batch.items.reserve(batch_size);
  batch.weights.assign(batch_size, 1.0);
  for (size_t i = 0; i < batch_size; ++i) {
    size_t idx = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(items_.size()) - 1));
    batch.indices.push_back(idx);
    batch.items.push_back(&items_[idx]);
  }
  return batch;
}

PrioritizedReplay::PrioritizedReplay(size_t capacity, double alpha,
                                     double beta)
    : capacity_(capacity), alpha_(alpha), beta_(beta) {
  CDBTUNE_CHECK(capacity > 0) << "replay capacity must be positive";
  items_.reserve(capacity);
  leaf_base_ = 1;
  while (leaf_base_ < capacity_) leaf_base_ <<= 1;
  tree_.assign(2 * leaf_base_, 0.0);
}

double PrioritizedReplay::TotalPriority() const { return tree_[1]; }

void PrioritizedReplay::SetPriority(size_t slot, double priority) {
  CDBTUNE_CHECK(slot < capacity_) << "slot out of range";
  CDBTUNE_DCHECK(std::isfinite(priority) && priority >= 0.0)
      << "priority must be finite and non-negative, got " << priority;
  size_t node = leaf_base_ + slot;
  tree_[node] = priority;
  for (node >>= 1; node >= 1; node >>= 1) {
    tree_[node] = tree_[2 * node] + tree_[2 * node + 1];
    if (node == 1) break;
  }
}

size_t PrioritizedReplay::FindSlot(double mass) const {
  size_t node = 1;
  while (node < leaf_base_) {
    size_t left = 2 * node;
    if (mass <= tree_[left] || tree_[left + 1] <= 0.0) {
      node = left;
      mass = std::min(mass, tree_[left]);
    } else {
      mass -= tree_[left];
      node = left + 1;
    }
  }
  return node - leaf_base_;
}

void PrioritizedReplay::Add(Transition transition) {
  if (items_.size() < capacity_) {
    items_.push_back(std::move(transition));  // next_ == size_ until full.
  } else {
    items_[next_] = std::move(transition);
  }
  // New samples enter with the current max priority so they are seen at
  // least once before their TD error is known.
  SetPriority(next_, std::pow(max_priority_, alpha_));
  next_ = (next_ + 1) % capacity_;
  size_ = std::min(size_ + 1, capacity_);
  // Full O(capacity) validation once per ring wrap keeps debug builds
  // honest without making every Add quadratic over a training run.
  if (next_ == 0) CDBTUNE_DCHECK_OK(CheckInvariants());
}

util::Status PrioritizedReplay::CheckInvariants() const {
  auto violation = [](const std::string& what) {
    return util::Status::Internal("replay sum-tree invariant violated: " +
                                  what);
  };
  if (tree_.size() != 2 * leaf_base_) {
    return violation("tree storage does not match leaf base");
  }
  for (size_t slot = 0; slot < leaf_base_; ++slot) {
    double p = tree_[leaf_base_ + slot];
    if (!std::isfinite(p) || p < 0.0) {
      return violation("leaf " + std::to_string(slot) +
                       " priority not finite and non-negative");
    }
    if (slot >= size_ && p != 0.0) {
      return violation("unwritten leaf " + std::to_string(slot) +
                       " holds non-zero priority");
    }
  }
  for (size_t node = 1; node < leaf_base_; ++node) {
    double expected = tree_[2 * node] + tree_[2 * node + 1];
    double tolerance = 1e-9 * std::max(1.0, std::fabs(expected));
    if (std::fabs(tree_[node] - expected) > tolerance) {
      return violation("node " + std::to_string(node) +
                       " does not equal the sum of its children");
    }
  }
  return util::Status::Ok();
}

void PrioritizedReplay::CorruptTreeNodeForTest(size_t node, double value) {
  CDBTUNE_CHECK(node < tree_.size()) << "tree node out of range";
  tree_[node] = value;
}

void PrioritizedReplay::SaveBinary(persist::Encoder& enc) const {
  enc.WriteString("prioritized");
  enc.WriteU64(capacity_);
  enc.WriteDouble(alpha_);
  enc.WriteDouble(beta_);
  enc.WriteDouble(max_priority_);
  enc.WriteU64(next_);
  enc.WriteU64(size_);
  for (size_t slot = 0; slot < size_; ++slot) {
    SaveTransitionBinary(enc, items_[slot]);
  }
  // Leaf priorities only: every internal sum-tree node equals the exact
  // FP sum of its two children (SetPriority recomputes parents bottom-up,
  // never applies deltas), so the tree is a pure function of its leaves and
  // rebuilding from them on load is bitwise-identical.
  for (size_t slot = 0; slot < size_; ++slot) {
    enc.WriteDouble(tree_[leaf_base_ + slot]);
  }
}

util::Status PrioritizedReplay::LoadBinary(persist::Decoder& dec,
                                           size_t state_dim,
                                           size_t action_dim) {
  std::string tag;
  uint64_t capacity = 0, next = 0, size = 0;
  double alpha = 0.0, beta = 0.0, max_priority = 0.0;
  if (!dec.ReadString(&tag) || !dec.ReadU64(&capacity) ||
      !dec.ReadDouble(&alpha) || !dec.ReadDouble(&beta) ||
      !dec.ReadDouble(&max_priority) || !dec.ReadU64(&next) ||
      !dec.ReadU64(&size)) {
    return dec.status();
  }
  if (tag != "prioritized" || capacity != capacity_) {
    return util::Status::DataLoss("prioritized replay checkpoint mismatch");
  }
  CDBTUNE_RETURN_IF_ERROR(CheckRingCursor(capacity, next, size));
  std::vector<Transition> items;
  items.reserve(capacity_);
  for (size_t slot = 0; slot < size; ++slot) {
    Transition t;
    CDBTUNE_RETURN_IF_ERROR(
        LoadTransitionBinary(dec, &t, state_dim, action_dim));
    items.push_back(std::move(t));
  }
  std::vector<double> priorities(size);
  for (size_t slot = 0; slot < size; ++slot) {
    if (!dec.ReadDouble(&priorities[slot])) return dec.status();
    if (!std::isfinite(priorities[slot]) || priorities[slot] < 0.0) {
      return util::Status::DataLoss("replay priority not finite/non-negative");
    }
  }
  items_ = std::move(items);
  alpha_ = alpha;
  beta_ = beta;
  max_priority_ = max_priority;
  next_ = next;
  size_ = size;
  tree_.assign(2 * leaf_base_, 0.0);
  for (size_t slot = 0; slot < size; ++slot) {
    SetPriority(slot, priorities[slot]);
  }
  return CheckInvariants();
}

SampleBatch PrioritizedReplay::Sample(size_t batch_size, util::Rng& rng) {
  CDBTUNE_CHECK(size_ > 0) << "sampling from empty replay";
  CDBTUNE_CHECK(TotalPriority() > 0.0) << "degenerate priorities";
  SampleBatch batch;

  const double total = TotalPriority();
  const double n = static_cast<double>(size_);

  // Stratified sampling, batched in two phases: first draw every segment's
  // mass in one serial pass over the caller's rng stream (so the stream
  // advances exactly as it would per-draw), then resolve the draws. The
  // sum-tree walks are read-only and every draw writes only its own output
  // slot, so the resolution phase partitions over the compute pool and the
  // batch is bitwise identical at any thread count.
  std::vector<double> masses(batch_size);
  for (size_t i = 0; i < batch_size; ++i) {
    double lo = total * static_cast<double>(i) / static_cast<double>(batch_size);
    double hi =
        total * static_cast<double>(i + 1) / static_cast<double>(batch_size);
    masses[i] = rng.Uniform(lo, hi);
  }

  batch.indices.assign(batch_size, 0);
  batch.items.assign(batch_size, nullptr);
  batch.weights.assign(batch_size, 0.0);
  util::ComputeContext::Get().ParallelFor(
      0, batch_size, /*grain=*/8, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          size_t slot = std::min(FindSlot(masses[i]), size_ - 1);
          batch.indices[i] = slot;
          batch.items[i] = &items_[slot];
          double p = tree_[leaf_base_ + slot] / total;
          batch.weights[i] = std::pow(n * std::max(p, 1e-12), -beta_);
        }
      });

  // Importance weights normalize by the batch max; max() is insensitive to
  // evaluation order, so doing it after the parallel phase stays exact.
  double max_weight = 0.0;
  for (double w : batch.weights) max_weight = std::max(max_weight, w);
  if (max_weight > 0.0) {
    for (double& w : batch.weights) w /= max_weight;
  }
  return batch;
}

void PrioritizedReplay::UpdatePriorities(const std::vector<size_t>& indices,
                                         const std::vector<double>& td_errors) {
  CDBTUNE_CHECK(indices.size() == td_errors.size()) << "size mismatch";
  constexpr double kEpsilon = 1e-3;
  for (size_t i = 0; i < indices.size(); ++i) {
    double priority = std::fabs(td_errors[i]) + kEpsilon;
    max_priority_ = std::max(max_priority_, priority);
    SetPriority(indices[i], std::pow(priority, alpha_));
  }
}

}  // namespace cdbtune::rl
