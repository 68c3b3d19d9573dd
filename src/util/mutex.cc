#include "util/mutex.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace cdbtune::util {

#if CDBTUNE_DCHECK_ENABLED

namespace {

/// The calling thread's held locks (Mutex, or SharedMutex in either mode)
/// in acquisition order. Because every acquire must strictly exceed the
/// rank of everything already held, the stack is always sorted ascending by
/// rank even when locks are released out of LIFO order, so back() is the
/// maximum held rank.
thread_local std::vector<const RankedLock*> tls_held;

/// Death reporting bypasses CDBTUNE_LOG on purpose: the log sink itself is
/// behind a util::Mutex, and reporting a rank violation must not acquire
/// another lock (the violation may involve the sink's own rank).
[[noreturn]] void LockRankDie(const char* what, const RankedLock& mu) {
  std::fprintf(stderr, "[FATAL lock-rank] %s '%s' (rank %d)\n", what, mu.name(),
               mu.rank());
  if (tls_held.empty()) {
    std::fprintf(stderr, "  this thread holds no locks\n");
  } else {
    std::fprintf(stderr, "  locks held by this thread (acquisition order):\n");
    for (const RankedLock* held : tls_held) {
      std::fprintf(stderr, "    '%s' (rank %d)\n", held->name(), held->rank());
    }
  }
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void RankedLock::DebugCheckAcquire() const {
  if (DebugHeldByThisThread()) {
    LockRankDie("self-deadlock: re-entrant acquire of", *this);
  }
  if (!tls_held.empty() && rank_ <= tls_held.back()->rank_) {
    LockRankDie("out-of-order acquire of", *this);
  }
}

void RankedLock::DebugNoteAcquired() const { tls_held.push_back(this); }

void RankedLock::DebugNoteReleased() const {
  for (auto it = tls_held.rbegin(); it != tls_held.rend(); ++it) {
    if (*it == this) {
      tls_held.erase(std::next(it).base());
      return;
    }
  }
  LockRankDie("release of unheld", *this);
}

bool RankedLock::DebugHeldByThisThread() const {
  for (const RankedLock* held : tls_held) {
    if (held == this) return true;
  }
  return false;
}

void Mutex::DebugAssertHeld() const {
  if (!DebugHeldByThisThread()) LockRankDie("AssertHeld failed:", *this);
}

void Mutex::DebugCheckWaitPrecondition() const {
  if (!DebugHeldByThisThread()) {
    LockRankDie("CondVar::Wait without holding", *this);
  }
}

#endif  // CDBTUNE_DCHECK_ENABLED

void CondVar::Wait(Mutex& mu) {
#if CDBTUNE_DCHECK_ENABLED
  mu.DebugCheckWaitPrecondition();
  // The wait releases the mutex, so the held-lock record must come off the
  // stack for its duration — another thread legitimately acquires it.
  mu.DebugNoteReleased();
#endif
  std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
  cv_.wait(lock);
  lock.release();  // cv_.wait reacquired; ownership stays with the caller.
#if CDBTUNE_DCHECK_ENABLED
  // Reacquisition is a fresh acquire: rank-check it against whatever the
  // thread still held across the wait (waiting on anything but the
  // innermost held lock inverts the order on wakeup and dies here).
  mu.DebugCheckAcquire();
  mu.DebugNoteAcquired();
#endif
}

void CondVar::NotifyOne() { cv_.notify_one(); }

void CondVar::NotifyAll() { cv_.notify_all(); }

}  // namespace cdbtune::util
