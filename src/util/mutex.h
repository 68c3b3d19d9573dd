#ifndef CDBTUNE_UTIL_MUTEX_H_
#define CDBTUNE_UTIL_MUTEX_H_

// The one sanctioned home of raw standard-library synchronization: every
// other file in src/ must use util::Mutex / util::MutexLock / util::CondVar
// (the lint `raw-mutex` rule enforces this), so the thread-safety
// annotations and the lock-rank detector see every lock in the process.

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "util/check.h"
#include "util/thread_annotations.h"

namespace cdbtune::util {

/// Lock-rank registry (DESIGN.md "Lock discipline"). Locks must be acquired
/// in strictly ascending rank order; two mutexes of equal rank may never be
/// held together. In CDBTUNE_DCHECK builds (Debug, or -DCDBTUNE_DCHECK=ON —
/// the whole sanitizer matrix) every acquire is checked against the calling
/// thread's held-lock list and an out-of-order or re-entrant acquire aborts
/// with both the offending mutex and the full held list; release builds
/// compile the checks out entirely (Lock() is exactly std::mutex::lock()).
namespace lock_rank {
/// TCP front end (net::TcpServer::mu_): dispatch work queue, lifecycle
/// flags, transport telemetry. The outermost lock — it sits above the
/// server locks (workers pop a request, release, then call into the
/// tuning server).
inline constexpr int kNetFrontEnd = 110;
/// net::EventLoop::tasks_mu_: the cross-thread task queue. Held only for
/// the push/swap — queued tasks always run lock-free on the loop thread —
/// but ranked below the server locks because workers post completions
/// after (never while) holding them.
inline constexpr int kNetLoopTasks = 120;
/// TuningServer::mu_: session registry, shard free list, round/exclusivity
/// state.
inline constexpr int kServerSessions = 200;
/// TuningServer::model_mu_ (a SharedMutex): the shared model. Inference
/// holds it shared, training and model swaps exclusive. Nested inside mu_
/// on the restore-commit path, never the other way around.
inline constexpr int kServerAgent = 300;
/// ThreadPool::mu_: the compute pool's task queue. Above the server locks
/// because training holds model_mu_ across ParallelFor/RunConcurrent.
inline constexpr int kThreadPool = 800;
/// BlockingCounter::mu_: fork/join countdown, waited on after submitting.
inline constexpr int kBlockingCounter = 810;
/// Default for utility mutexes with no declared ordering: innermost except
/// for the log sink, so an unranked lock can be taken while holding any
/// ranked one but never alongside another unranked lock.
inline constexpr int kLeaf = 900;
/// The logging sink: the absolute innermost, so logging is legal while
/// holding any other lock in the repo.
inline constexpr int kLogSink = 1000;
}  // namespace lock_rank

/// Rank and name of one lock, plus the lock-rank detector's bookkeeping
/// for it. Base of Mutex and SharedMutex, so both kinds share one held-lock
/// list per thread and one rank order.
class RankedLock {
 public:
  RankedLock(const RankedLock&) = delete;
  RankedLock& operator=(const RankedLock&) = delete;

  int rank() const { return rank_; }
  const char* name() const { return name_; }

 protected:
  RankedLock(int rank, const char* name) : rank_(rank), name_(name) {}
  ~RankedLock() = default;

#if CDBTUNE_DCHECK_ENABLED
  void DebugCheckAcquire() const;
  void DebugNoteAcquired() const;
  void DebugNoteReleased() const;
  /// True when the calling thread holds this lock (in any mode).
  bool DebugHeldByThisThread() const;
#endif

 private:
  const int rank_;
  const char* const name_;
};

/// Annotated std::mutex wrapper with a debug-mode lock-rank deadlock
/// detector. Non-recursive; not copyable or movable (guarded members name
/// their mutex in annotations, so its address is part of the protocol).
class CDBTUNE_CAPABILITY("mutex") Mutex : public RankedLock {
 public:
  explicit Mutex(int rank = lock_rank::kLeaf, const char* name = "Mutex")
      : RankedLock(rank, name) {}

  void Lock() CDBTUNE_ACQUIRE() {
#if CDBTUNE_DCHECK_ENABLED
    DebugCheckAcquire();
#endif
    mu_.lock();
#if CDBTUNE_DCHECK_ENABLED
    DebugNoteAcquired();
#endif
  }

  void Unlock() CDBTUNE_RELEASE() {
#if CDBTUNE_DCHECK_ENABLED
    DebugNoteReleased();
#endif
    mu_.unlock();
  }

  /// Non-blocking acquire. A successful try must still respect the rank
  /// order — a trylock cannot deadlock by itself, but an out-of-order one
  /// means the caller's mental model of the hierarchy is wrong.
  bool TryLock() CDBTUNE_TRY_ACQUIRE(true) {
#if CDBTUNE_DCHECK_ENABLED
    DebugCheckAcquire();
#endif
    if (!mu_.try_lock()) return false;
#if CDBTUNE_DCHECK_ENABLED
    DebugNoteAcquired();
#endif
    return true;
  }

  /// Dies in debug builds unless the calling thread holds this mutex; tells
  /// the static analysis to treat it as held from here on.
  void AssertHeld() const CDBTUNE_ASSERT_CAPABILITY(this) {
#if CDBTUNE_DCHECK_ENABLED
    DebugAssertHeld();
#endif
  }

 private:
  friend class CondVar;

#if CDBTUNE_DCHECK_ENABLED
  void DebugAssertHeld() const;
  void DebugCheckWaitPrecondition() const;
#endif

  std::mutex mu_;
};

/// RAII lock for util::Mutex — the only way the repo takes a lock outside
/// explicit Lock/Unlock pairs in the wait loops.
class CDBTUNE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CDBTUNE_ACQUIRE(mu) : mu_(&mu) { mu_->Lock(); }
  ~MutexLock() CDBTUNE_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Reader/writer lock over std::shared_mutex: any number of shared holders
/// or one exclusive holder. Rank-checked like Mutex in both modes — a
/// shared hold counts as held, so neither mode may be taken re-entrantly
/// (a second shared acquire can deadlock behind a waiting writer) or out of
/// rank order. No CondVar pairs with it.
class CDBTUNE_CAPABILITY("mutex") SharedMutex : public RankedLock {
 public:
  SharedMutex(int rank, const char* name) : RankedLock(rank, name) {}

  void Lock() CDBTUNE_ACQUIRE() {
#if CDBTUNE_DCHECK_ENABLED
    DebugCheckAcquire();
#endif
    mu_.lock();
#if CDBTUNE_DCHECK_ENABLED
    DebugNoteAcquired();
#endif
  }

  void Unlock() CDBTUNE_RELEASE() {
#if CDBTUNE_DCHECK_ENABLED
    DebugNoteReleased();
#endif
    mu_.unlock();
  }

  void LockShared() CDBTUNE_ACQUIRE_SHARED() {
#if CDBTUNE_DCHECK_ENABLED
    DebugCheckAcquire();
#endif
    mu_.lock_shared();
#if CDBTUNE_DCHECK_ENABLED
    DebugNoteAcquired();
#endif
  }

  void UnlockShared() CDBTUNE_RELEASE_SHARED() {
#if CDBTUNE_DCHECK_ENABLED
    DebugNoteReleased();
#endif
    mu_.unlock_shared();
  }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive lock for util::SharedMutex.
class CDBTUNE_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) CDBTUNE_ACQUIRE(mu) : mu_(&mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() CDBTUNE_RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// RAII shared lock for util::SharedMutex.
class CDBTUNE_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) CDBTUNE_ACQUIRE_SHARED(mu)
      : mu_(&mu) {
    mu_->LockShared();
  }
  ~ReaderMutexLock() CDBTUNE_RELEASE() { mu_->UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// Condition variable bound to util::Mutex. There is deliberately no
/// predicate overload: a predicate lambda is analyzed as a separate function
/// by the thread-safety pass and its guarded reads would be invisible to the
/// REQUIRES contract. Write the loop out instead, so every guarded read sits
/// in a scope the analysis can see:
///
///   MutexLock lock(mu_);
///   while (!ready_) cv_.Wait(mu_);
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and reacquires `mu` before
  /// returning. Debug builds die if the caller does not hold `mu` (the
  /// classic wait-without-lock bug) and rank-check the reacquisition
  /// against locks still held across the wait.
  void Wait(Mutex& mu) CDBTUNE_REQUIRES(mu);

  void NotifyOne();
  void NotifyAll();

 private:
  std::condition_variable cv_;
};

}  // namespace cdbtune::util

#endif  // CDBTUNE_UTIL_MUTEX_H_
