// Tests for the parallel compute substrate: ThreadPool / ComputeContext
// primitives, and the end-to-end determinism contract — a DDPG training run
// produces bitwise-identical results at CDBTUNE_THREADS=1 and
// CDBTUNE_THREADS=8.
#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "rl/ddpg.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace cdbtune {
namespace {

/// Restores the global thread count when a test exits.
class ScopedThreads {
 public:
  explicit ScopedThreads(size_t n)
      : old_(util::ComputeContext::Get().threads()) {
    util::ComputeContext::Get().SetThreads(n);
  }
  ~ScopedThreads() { util::ComputeContext::Get().SetThreads(old_); }

 private:
  size_t old_;
};

TEST(ThreadPoolTest, ExecutesSubmittedTasks) {
  util::ThreadPool pool(3);
  std::atomic<int> count{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] {
      count.fetch_add(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WorkerFlagVisibleInsideTasks) {
  EXPECT_FALSE(util::ThreadPool::InWorker());
  util::ThreadPool pool(1);
  std::atomic<bool> seen{false};
  std::atomic<bool> done{false};
  pool.Submit([&] {
    seen = util::ThreadPool::InWorker();
    done = true;
  });
  while (!done.load()) std::this_thread::yield();
  EXPECT_TRUE(seen.load());
}

TEST(ComputeContextTest, ParallelForCoversEveryIndexOnce) {
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    ScopedThreads scoped(threads);
    std::vector<std::atomic<int>> hits(1000);
    util::ComputeContext::Get().ParallelFor(
        0, hits.size(), /*grain=*/16, [&](size_t lo, size_t hi) {
          ASSERT_LE(lo, hi);
          for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
        });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ComputeContextTest, ParallelForRespectsGrain) {
  ScopedThreads scoped(8);
  // range == grain: must run as one inline chunk.
  size_t calls = 0;
  util::ComputeContext::Get().ParallelFor(5, 13, 8, [&](size_t lo, size_t hi) {
    ++calls;
    EXPECT_EQ(lo, 5u);
    EXPECT_EQ(hi, 13u);
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ComputeContextTest, ParallelForEmptyRangeIsNoop) {
  size_t calls = 0;
  util::ComputeContext::Get().ParallelFor(
      3, 3, 1, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
}

TEST(ComputeContextTest, NestedParallelForRunsInline) {
  ScopedThreads scoped(4);
  std::atomic<int> inner_chunks{0};
  util::ComputeContext::Get().RunConcurrent(
      {[&] {
         // Inside a RunConcurrent task (calling thread or pool worker), a
         // nested ParallelFor from a worker must degrade to one inline call
         // rather than re-enter the pool.
         util::ComputeContext::Get().ParallelFor(
             0, 100, 1, [&](size_t, size_t) { inner_chunks.fetch_add(1); });
       },
       [&] {
         util::ComputeContext::Get().ParallelFor(
             0, 100, 1, [&](size_t, size_t) { inner_chunks.fetch_add(1); });
       }});
  // Task 0 runs on the calling thread (may split); task 1 runs on a worker
  // (single inline chunk), or on the caller if it claims task 1 first.
  // Either way every index is covered, in at least 2 chunks total.
  EXPECT_GE(inner_chunks.load(), 2);
}

TEST(ComputeContextTest, RunConcurrentRunsAllTasks) {
  // Every task exactly once, task 0 on the caller: serially, and with three
  // workers for fewer tasks than workers, as many, and many more.
  const std::thread::id caller = std::this_thread::get_id();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ScopedThreads scoped(threads);
    for (size_t n : {size_t{2}, size_t{4}, size_t{64}}) {
      std::vector<std::atomic<int>> ran(n);
      std::vector<std::thread::id> ran_on(n);  // Slot i: task i's only.
      std::vector<std::function<void()>> tasks;
      for (size_t i = 0; i < n; ++i) {
        tasks.push_back([&ran, &ran_on, i] {
          ran[i].fetch_add(1);
          ran_on[i] = std::this_thread::get_id();
        });
      }
      util::ComputeContext::Get().RunConcurrent(std::move(tasks));
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(ran[i].load(), 1)
            << "task " << i << " of " << n << ", " << threads << " threads";
      }
      EXPECT_EQ(ran_on[0], caller) << n << " tasks, " << threads << " threads";
    }
  }
}

TEST(ComputeContextTest, RunConcurrentCallerClaimsTasksBeyondTaskZero) {
  // One worker. Task 1 can only finish once task 2 has run, so the call
  // returns only if some thread other than task 1's runs task 2 meanwhile:
  // the caller, after task 0. A caller that ran task 0 and then just waited
  // would leave both to the single worker, which would spin to the bound.
  ScopedThreads scoped(2);
  std::atomic<bool> task2_ran{false};
  std::atomic<bool> task1_saw_task2{false};
  util::ComputeContext::Get().RunConcurrent(
      {[] {},
       [&] {
         for (int spin = 0; spin < 20'000'000 && !task2_ran.load(); ++spin) {
           std::this_thread::yield();
         }
         task1_saw_task2 = task2_ran.load();
       },
       [&] { task2_ran = true; }});
  EXPECT_TRUE(task1_saw_task2.load());
}

TEST(ComputeContextTest, NestedRegionsInsideRunConcurrentTasksReturn) {
  ScopedThreads scoped(4);
  std::atomic<int> inner{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([&inner] {
      util::ComputeContext::Get().RunConcurrent(
          {[&inner] { inner.fetch_add(1); }, [&inner] { inner.fetch_add(1); },
           [&inner] { inner.fetch_add(1); }});
      util::ComputeContext::Get().ParallelFor(
          0, 100, 1, [&inner](size_t lo, size_t hi) {
            inner.fetch_add(static_cast<int>(hi - lo));
          });
    });
  }
  util::ComputeContext::Get().RunConcurrent(std::move(tasks));
  EXPECT_EQ(inner.load(), 8 * (3 + 100));
}

// --- End-to-end determinism -----------------------------------------------

rl::DdpgOptions SmallDdpg() {
  rl::DdpgOptions o;
  o.state_dim = 63;
  o.action_dim = 40;
  o.actor_hidden = {64, 64};
  o.critic_embed = 64;
  o.critic_hidden = {64, 32};
  o.batch_size = 16;
  o.seed = 21;
  return o;
}

rl::Transition MakeTransition(util::Rng& rng, const rl::DdpgOptions& o) {
  rl::Transition t;
  t.state.resize(o.state_dim);
  t.action.resize(o.action_dim);
  t.next_state.resize(o.state_dim);
  for (double& v : t.state) v = rng.Gaussian();
  for (double& v : t.action) v = rng.Uniform();
  for (double& v : t.next_state) v = rng.Gaussian();
  t.reward = rng.Gaussian();
  return t;
}

/// Runs a fixed training schedule and returns every observable output.
struct TrainTrace {
  std::vector<rl::TrainStats> stats;
  std::vector<double> final_action;
};

TrainTrace RunSchedule(size_t threads) {
  ScopedThreads scoped(threads);
  rl::DdpgOptions options = SmallDdpg();
  rl::DdpgAgent agent(options);
  util::Rng data_rng(99);
  for (int i = 0; i < 64; ++i) {
    agent.Observe(MakeTransition(data_rng, options));
  }
  TrainTrace trace;
  for (int step = 0; step < 6; ++step) {
    trace.stats.push_back(agent.TrainStep());
  }
  std::vector<double> probe(options.state_dim, 0.25);
  trace.final_action = agent.SelectAction(probe, /*noise=*/nullptr);
  return trace;
}

TEST(ParallelDeterminismTest, TrainStepBitwiseIdenticalAcrossThreadCounts) {
  TrainTrace serial = RunSchedule(1);
  TrainTrace parallel = RunSchedule(8);

  ASSERT_EQ(serial.stats.size(), parallel.stats.size());
  for (size_t i = 0; i < serial.stats.size(); ++i) {
    // Bitwise equality: the parallel schedule must not change any
    // floating-point summation order.
    EXPECT_EQ(serial.stats[i].critic_loss, parallel.stats[i].critic_loss)
        << "step " << i;
    EXPECT_EQ(serial.stats[i].actor_objective,
              parallel.stats[i].actor_objective)
        << "step " << i;
    EXPECT_EQ(serial.stats[i].mean_td_error, parallel.stats[i].mean_td_error)
        << "step " << i;
  }
  ASSERT_EQ(serial.final_action.size(), parallel.final_action.size());
  for (size_t i = 0; i < serial.final_action.size(); ++i) {
    EXPECT_EQ(serial.final_action[i], parallel.final_action[i])
        << "action dim " << i;
  }
}

TEST(ParallelDeterminismTest, RepeatedRunsAtFixedThreadCountIdentical) {
  TrainTrace a = RunSchedule(8);
  TrainTrace b = RunSchedule(8);
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (size_t i = 0; i < a.stats.size(); ++i) {
    EXPECT_EQ(a.stats[i].critic_loss, b.stats[i].critic_loss);
  }
  EXPECT_EQ(a.final_action, b.final_action);
}

}  // namespace
}  // namespace cdbtune
