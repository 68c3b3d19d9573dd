#ifndef CDBTUNE_UTIL_THREAD_POOL_H_
#define CDBTUNE_UTIL_THREAD_POOL_H_

// lint: allow-file(std-function) — the pool's task queue IS the type-erasure
// boundary: one std::function per submitted task, amortized over the whole
// parallel region. Kernels below this layer take template callables.

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace cdbtune::util {

/// Fixed-size worker pool. Tasks are plain closures executed FIFO; Submit
/// never blocks. The pool is a building block for ComputeContext — library
/// code should go through ComputeContext::ParallelFor / RunConcurrent, which
/// add the serial fallback and nesting rules, rather than use this directly.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  void Submit(std::function<void()> task);

  /// True when called from one of this pool's worker threads. Used to run
  /// nested parallel regions serially instead of deadlocking the pool.
  static bool InWorker();

 private:
  void WorkerLoop();

  Mutex mu_{lock_rank::kThreadPool, "ThreadPool::mu_"};
  CondVar cv_;
  std::deque<std::function<void()>> queue_ CDBTUNE_GUARDED_BY(mu_);
  bool stop_ CDBTUNE_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

/// Process-wide parallel-compute configuration and dispatch.
///
/// The thread count comes from the CDBTUNE_THREADS environment variable
/// (default: std::thread::hardware_concurrency; 1 = exact serial execution
/// with no pool involvement) and can be changed at runtime with SetThreads.
///
/// Determinism contract (see DESIGN.md "Parallelism & kernels"): every
/// parallel region partitions *independent outputs* across threads — no
/// floating-point reduction is ever split — so results are bitwise identical
/// at any thread count, and `threads() == 1` runs the very same loop bodies
/// inline on the calling thread.
class ComputeContext {
 public:
  /// The global context. First call reads CDBTUNE_THREADS.
  static ComputeContext& Get();

  size_t threads() const { return threads_; }

  /// Resizes the pool; `n == 0` restores the hardware default. Not
  /// thread-safe against concurrent ParallelFor calls — call it from the
  /// top level (tests, main()).
  void SetThreads(size_t n);

  /// Runs fn(chunk_begin, chunk_end) over contiguous chunks covering
  /// [begin, end). Chunks never overlap, each holds at least `grain`
  /// indices (except possibly the last), and the loop body must only write
  /// outputs owned by its index range. Runs fn(begin, end) inline when the
  /// pool is unavailable (single-threaded config, nested call from a worker,
  /// or a range too small to split).
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& fn);

  /// Runs independent task closures exactly once each and returns after
  /// every one finished. The calling thread runs task 0, then claims the
  /// remaining tasks from one shared cursor alongside up to one drain job
  /// per pool worker, so any task may run on the caller or on a worker, in
  /// any order. Tasks therefore must not depend on each other's progress.
  /// Runs every task inline, in order, in serial mode, for a single task,
  /// or when nested inside a pool worker.
  void RunConcurrent(std::vector<std::function<void()>> tasks);

 private:
  ComputeContext();

  size_t threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // threads_ - 1 workers; null if serial.
};

}  // namespace cdbtune::util

#endif  // CDBTUNE_UTIL_THREAD_POOL_H_
