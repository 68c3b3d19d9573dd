#include "util/thread_pool.h"

// lint: allow-file(std-function) — see thread_pool.h: the task queue is the
// sanctioned type-erasure boundary; cost is per-task, not per-element.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>

#include "util/check.h"

namespace cdbtune::util {

namespace {

thread_local bool tls_in_pool_worker = false;

/// Count-down synchronization for fork/join regions: the issuing thread
/// waits until every submitted chunk reported completion.
class BlockingCounter {
 public:
  explicit BlockingCounter(size_t count) : count_(count) {}

  void DecrementCount() {
    MutexLock lock(mu_);
    CDBTUNE_CHECK(count_ > 0) << "BlockingCounter underflow";
    if (--count_ == 0) cv_.NotifyAll();
  }

  void Wait() {
    MutexLock lock(mu_);
    while (count_ != 0) cv_.Wait(mu_);
  }

 private:
  Mutex mu_{lock_rank::kBlockingCounter, "BlockingCounter::mu_"};
  CondVar cv_;
  size_t count_ CDBTUNE_GUARDED_BY(mu_);
};

/// One RunConcurrent call: its tasks and the cursor the caller and the
/// drain jobs claim them from. Drain jobs hold it by shared_ptr, so a job
/// that starts after the last task was claimed finds nothing to run and
/// touches only this object, never the caller's frame.
struct TaskRegion {
  explicit TaskRegion(std::vector<std::function<void()>> t)
      : tasks(std::move(t)), unfinished(tasks.size() - 1) {}

  /// Claims and runs tasks until every one is claimed.
  void Drain() {
    for (size_t i = next++; i < tasks.size(); i = next++) {
      tasks[i]();
      unfinished.DecrementCount();
    }
  }

  const std::vector<std::function<void()>> tasks;
  std::atomic<size_t> next{1};  // Task 0 belongs to the caller.
  BlockingCounter unfinished;   // Tasks 1.. not yet finished.
};

size_t DefaultThreads() {
  if (const char* env = std::getenv("CDBTUNE_THREADS")) {
    char* end = nullptr;
    long n = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && n >= 1) return static_cast<size_t>(n);
  }
  size_t hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
}

bool ThreadPool::InWorker() { return tls_in_pool_worker; }

void ThreadPool::WorkerLoop() {
  tls_in_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.Wait(mu_);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ComputeContext& ComputeContext::Get() {
  // lint: allow(raw-new, mutable-global) — intentionally leaked process
  // singleton: the magic static makes initialization thread-safe, and never
  // destroying it avoids shutdown races with detached worker threads.
  static ComputeContext* context = new ComputeContext();
  return *context;
}

ComputeContext::ComputeContext() { SetThreads(DefaultThreads()); }

void ComputeContext::SetThreads(size_t n) {
  if (n == 0) n = DefaultThreads();
  threads_ = n;
  pool_.reset();
  if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_ - 1);
}

void ComputeContext::ParallelFor(size_t begin, size_t end, size_t grain,
                                 const std::function<void(size_t, size_t)>& fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const size_t range = end - begin;
  // Serial path: single-threaded config, a nested call from inside a pool
  // worker (nested regions run inline rather than re-entering the pool), or
  // a range too small to be worth splitting. This is the exact loop the
  // parallel chunks run, so thread count never changes results.
  if (threads_ == 1 || ThreadPool::InWorker() || range <= grain) {
    fn(begin, end);
    return;
  }
  size_t chunks = range / grain;
  if (chunks > threads_) chunks = threads_;
  // Balanced split: chunk c covers [begin + c*range/chunks,
  // begin + (c+1)*range/chunks) — contiguous, disjoint, never empty.
  const auto bound = [begin, range, chunks](size_t c) {
    return begin + c * range / chunks;
  };
  BlockingCounter pending(chunks - 1);
  for (size_t c = 1; c < chunks; ++c) {
    const size_t lo = bound(c);
    const size_t hi = bound(c + 1);
    pool_->Submit([&fn, &pending, lo, hi] {
      fn(lo, hi);
      pending.DecrementCount();
    });
  }
  // The calling thread takes the first chunk instead of idling.
  fn(begin, bound(1));
  pending.Wait();
}

void ComputeContext::RunConcurrent(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (threads_ == 1 || ThreadPool::InWorker() || tasks.size() == 1) {
    for (auto& task : tasks) task();
    return;
  }
  auto region = std::make_shared<TaskRegion>(std::move(tasks));
  // One drain job per worker that can have a task to claim, rather than
  // one queued closure per task: a 64-session round keeps all threads
  // busy, the caller included, instead of waiting after task 0.
  const size_t jobs =
      std::min(pool_->num_threads(), region->tasks.size() - 1);
  for (size_t j = 0; j < jobs; ++j) {
    pool_->Submit([region] { region->Drain(); });
  }
  region->tasks[0]();
  region->Drain();
  region->unfinished.Wait();
}

}  // namespace cdbtune::util
