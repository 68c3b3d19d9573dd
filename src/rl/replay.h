#ifndef CDBTUNE_RL_REPLAY_H_
#define CDBTUNE_RL_REPLAY_H_

#include <cstddef>
#include <vector>

#include "persist/encoding.h"
#include "util/random.h"
#include "util/status.h"

namespace cdbtune::rl {

/// One experience tuple (s_t, a_t, r_t, s_{t+1}) — the paper's "transition"
/// stored in the experience replay memory (Section 2.2.4).
struct Transition {
  std::vector<double> state;
  std::vector<double> action;
  double reward = 0.0;
  std::vector<double> next_state;
  /// True when the episode ended here (instance crash / tuning session
  /// terminated); the bootstrap term is dropped for terminal transitions.
  bool terminal = false;
};

/// Bit-exact Transition codec shared by the replay buffers and the tuner's
/// experience pool checkpoints. LoadTransitionBinary returns kDataLoss
/// unless state and next_state hold `state_dim` values and action holds
/// `action_dim`: the agent that trains on a restored transition copies it
/// into fixed-width batch rows.
void SaveTransitionBinary(persist::Encoder& enc, const Transition& t);
util::Status LoadTransitionBinary(persist::Decoder& dec, Transition* out,
                                  size_t state_dim, size_t action_dim);

/// A minibatch sampled from replay: item pointers stay valid until the next
/// Add() call on the owning buffer.
struct SampleBatch {
  std::vector<size_t> indices;
  std::vector<const Transition*> items;
  /// Importance-sampling weights (all 1.0 for uniform replay).
  std::vector<double> weights;
};

/// Experience replay memory. Random minibatch sampling breaks the temporal
/// correlation of tuning trajectories (Section 2.1.2: "randomly extract
/// some batches of samples each time ... to eliminate the correlations
/// between samples").
class ReplayBuffer {
 public:
  virtual ~ReplayBuffer() = default;

  virtual void Add(Transition transition) = 0;
  virtual SampleBatch Sample(size_t batch_size, util::Rng& rng) = 0;

  /// For prioritized replay: refreshes priorities with fresh |TD errors|.
  /// No-op for uniform replay.
  virtual void UpdatePriorities(const std::vector<size_t>& indices,
                                const std::vector<double>& td_errors);

  virtual size_t size() const = 0;
  virtual size_t capacity() const = 0;

  /// Bit-exact checkpoint round-trip of the full buffer: contents, ring
  /// cursor and (for prioritized replay) every priority, so a restored
  /// buffer returns the same batches for the same rng stream. LoadBinary
  /// must be called on a buffer constructed with the same type and
  /// capacity, and is given the transition shape of the agent it restores
  /// for; mismatches, and a ring cursor no Add sequence could leave
  /// (fewer than capacity items, but the cursor not at the end), return
  /// kDataLoss.
  virtual void SaveBinary(persist::Encoder& enc) const = 0;
  virtual util::Status LoadBinary(persist::Decoder& dec, size_t state_dim,
                                  size_t action_dim) = 0;
};

/// Fixed-capacity ring buffer with uniform sampling.
class UniformReplay : public ReplayBuffer {
 public:
  explicit UniformReplay(size_t capacity);

  void Add(Transition transition) override;
  SampleBatch Sample(size_t batch_size, util::Rng& rng) override;
  size_t size() const override { return items_.size(); }
  size_t capacity() const override { return capacity_; }
  void SaveBinary(persist::Encoder& enc) const override;
  util::Status LoadBinary(persist::Decoder& dec, size_t state_dim,
                          size_t action_dim) override;

 private:
  size_t capacity_;
  size_t next_ = 0;
  std::vector<Transition> items_;
};

/// Proportional prioritized experience replay (Schaul et al. [38], cited in
/// Section 5.1 as doubling convergence speed). Priorities are |TD error| ^
/// alpha over a sum-tree; Sample returns importance weights
/// (N * P(i))^-beta normalized by the batch max. Like UniformReplay, the
/// ring reserves its capacity and grows by push_back until full, so an
/// agent pays only for the transitions it holds.
class PrioritizedReplay : public ReplayBuffer {
 public:
  PrioritizedReplay(size_t capacity, double alpha = 0.6, double beta = 0.4);

  void Add(Transition transition) override;
  SampleBatch Sample(size_t batch_size, util::Rng& rng) override;
  void UpdatePriorities(const std::vector<size_t>& indices,
                        const std::vector<double>& td_errors) override;
  size_t size() const override { return size_; }
  size_t capacity() const override { return capacity_; }
  void SaveBinary(persist::Encoder& enc) const override;
  util::Status LoadBinary(persist::Decoder& dec, size_t state_dim,
                          size_t action_dim) override;

  /// Anneals beta toward 1 as training progresses.
  void set_beta(double beta) { beta_ = beta; }
  double beta() const { return beta_; }

  /// Sum of all priorities (exposed for tests).
  double TotalPriority() const;

  /// Sum-tree validation: every internal node must equal the sum of its two
  /// children (within FP tolerance), every leaf priority must be finite and
  /// non-negative, and slots never written (beyond size(), or padding past
  /// capacity()) must hold zero. O(capacity); debug builds run it each time
  /// the ring wraps, tests on demand.
  util::Status CheckInvariants() const;

  /// Test-only: overwrites one raw sum-tree node (tree index, root = 1) so
  /// tests can prove CheckInvariants catches the corruption.
  void CorruptTreeNodeForTest(size_t node, double value);

 private:
  void SetPriority(size_t slot, double priority);
  size_t FindSlot(double mass) const;

  size_t capacity_;
  double alpha_;
  double beta_;
  double max_priority_ = 1.0;
  size_t next_ = 0;
  size_t size_ = 0;  // == items_.size()
  std::vector<Transition> items_;
  /// Binary sum-tree: tree_[1] is the root; leaves start at capacity_
  /// (capacity_ rounded up to a power of two).
  size_t leaf_base_;
  std::vector<double> tree_;
};

}  // namespace cdbtune::rl

#endif  // CDBTUNE_RL_REPLAY_H_
