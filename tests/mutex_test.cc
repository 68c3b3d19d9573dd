// Proves the lock discipline actually bites: functional coverage of
// util::Mutex / util::MutexLock / util::CondVar, and — in CDBTUNE_DCHECK
// builds (Debug, and the whole sanitizer matrix) — death tests for every
// way the lock-rank detector is supposed to kill a misbehaving thread:
// out-of-order acquire, equal-rank acquire, self-deadlock, unlocking a
// mutex the thread does not hold, and CondVar::Wait without the lock.

#include <atomic>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "util/mutex.h"

namespace cdbtune::util {
namespace {

// --- Functional behavior (all build modes) -------------------------------

TEST(MutexTest, LockUnlockRoundTrip) {
  Mutex mu;
  mu.Lock();
  mu.Unlock();
  mu.Lock();
  mu.Unlock();
}

TEST(MutexTest, TryLockReportsContention) {
  Mutex mu;
  ASSERT_TRUE(mu.TryLock());
  std::thread contender([&] { EXPECT_FALSE(mu.TryLock()); });
  contender.join();
  mu.Unlock();
}

TEST(MutexTest, AscendingRanksNest) {
  Mutex outer(lock_rank::kNetFrontEnd, "outer");
  Mutex middle(lock_rank::kServerSessions, "middle");
  Mutex inner(lock_rank::kLogSink, "inner");
  MutexLock a(outer);
  MutexLock b(middle);
  MutexLock c(inner);
}

TEST(MutexTest, OutOfLifoReleaseIsLegal) {
  // The hierarchy constrains acquisition order only; releasing the outer
  // lock first (hand-over-hand) must not confuse the held-lock bookkeeping.
  Mutex outer(lock_rank::kServerSessions, "outer");
  Mutex inner(lock_rank::kServerAgent, "inner");
  outer.Lock();
  inner.Lock();
  outer.Unlock();
  // With only `inner` held, a lock ranked above it must still be admissible.
  Mutex next(lock_rank::kThreadPool, "next");
  next.Lock();
  next.Unlock();
  inner.Unlock();
}

TEST(MutexTest, RankAndNameAccessors) {
  Mutex mu(lock_rank::kThreadPool, "pool");
  EXPECT_EQ(mu.rank(), lock_rank::kThreadPool);
  EXPECT_STREQ(mu.name(), "pool");
}

TEST(CondVarTest, NotifyWakesWaiter) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread waker([&] {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    EXPECT_TRUE(ready);
  }
  waker.join();
}

TEST(CondVarTest, NotifyAllWakesEveryWaiter) {
  Mutex mu;
  CondVar cv;
  bool go = false;
  int awake = 0;
  std::vector<std::thread> waiters;
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&] {
      MutexLock lock(mu);
      while (!go) cv.Wait(mu);
      ++awake;
    });
  }
  {
    MutexLock lock(mu);
    go = true;
    cv.NotifyAll();
  }
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(awake, 4);
}

TEST(CondVarTest, WaitReleasesTheMutexWhileBlocked) {
  Mutex mu;
  CondVar cv;
  bool woken = false;
  std::thread waiter([&] {
    MutexLock lock(mu);
    while (!woken) cv.Wait(mu);
  });
  // If Wait failed to release mu this Lock would deadlock the test; the
  // waiter can only be woken by a notifier that takes the lock itself.
  for (;;) {
    MutexLock lock(mu);
    woken = true;
    cv.NotifyOne();
    break;
  }
  waiter.join();
}

TEST(SharedMutexTest, SharedHoldersOverlapAndExclusiveWaitsForThem) {
  SharedMutex mu(lock_rank::kServerAgent, "model");
  std::atomic<int> readers{0};
  std::atomic<bool> both_inside{false};
  auto reader = [&] {
    ReaderMutexLock lock(mu);
    ++readers;
    // Both readers must be inside at once: a SharedMutex that serialized
    // shared holders would keep this loop spinning until the bound.
    for (int spin = 0; spin < 20'000'000 && readers.load() < 2; ++spin) {
      std::this_thread::yield();
    }
    if (readers.load() == 2) both_inside = true;
  };
  std::thread a(reader);
  std::thread b(reader);
  a.join();
  b.join();
  EXPECT_TRUE(both_inside.load());

  int guarded = 0;
  std::vector<std::thread> writers;
  for (int i = 0; i < 4; ++i) {
    writers.emplace_back([&] {
      for (int j = 0; j < 1000; ++j) {
        WriterMutexLock lock(mu);
        ++guarded;
      }
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(guarded, 4000);
}

TEST(SharedMutexTest, BothModesNestInRankOrder) {
  Mutex registry(lock_rank::kServerSessions, "registry");
  SharedMutex model(lock_rank::kServerAgent, "model");
  Mutex pool(lock_rank::kThreadPool, "pool");
  {
    MutexLock a(registry);
    ReaderMutexLock b(model);
    MutexLock c(pool);
  }
  {
    MutexLock a(registry);
    WriterMutexLock b(model);
    MutexLock c(pool);
  }
  EXPECT_EQ(model.rank(), lock_rank::kServerAgent);
  EXPECT_STREQ(model.name(), "model");
}

// --- Lock-rank detector death tests (CDBTUNE_DCHECK builds) --------------

#if CDBTUNE_DCHECK_ENABLED

TEST(LockRankDeathTest, OutOfOrderAcquireDies) {
  Mutex pool(lock_rank::kThreadPool, "ThreadPool::mu_");
  Mutex registry(lock_rank::kServerSessions, "TuningServer::mu_");
  EXPECT_DEATH(
      {
        MutexLock a(pool);
        MutexLock b(registry);  // 200 after 800: hierarchy inversion.
      },
      "out-of-order acquire of 'TuningServer::mu_' \\(rank 200\\)");
}

TEST(LockRankDeathTest, DeathReportListsHeldLocks) {
  Mutex pool(lock_rank::kThreadPool, "ThreadPool::mu_");
  Mutex registry(lock_rank::kServerSessions, "TuningServer::mu_");
  EXPECT_DEATH(
      {
        MutexLock a(pool);
        MutexLock b(registry);
      },
      "'ThreadPool::mu_' \\(rank 800\\)");
}

TEST(LockRankDeathTest, EqualRankAcquireDies) {
  // Two leaf-ranked locks held together have no defined order — the
  // discipline requires *strictly* ascending ranks.
  Mutex a(lock_rank::kLeaf, "leaf_a");
  Mutex b(lock_rank::kLeaf, "leaf_b");
  EXPECT_DEATH(
      {
        MutexLock la(a);
        MutexLock lb(b);
      },
      "out-of-order acquire of 'leaf_b'");
}

TEST(LockRankDeathTest, SelfDeadlockDies) {
  Mutex mu(lock_rank::kLeaf, "reentrant");
  EXPECT_DEATH(
      {
        mu.Lock();
        mu.Lock();  // Would block forever on a std::mutex.
      },
      "re-entrant acquire of 'reentrant'");
}

TEST(LockRankDeathTest, UnlockWithoutLockDies) {
  Mutex mu(lock_rank::kLeaf, "never_locked");
  EXPECT_DEATH(mu.Unlock(), "release of unheld 'never_locked'");
}

TEST(LockRankDeathTest, AssertHeldDiesWhenNotHeld) {
  Mutex mu(lock_rank::kLeaf, "unheld");
  EXPECT_DEATH(mu.AssertHeld(), "AssertHeld failed: 'unheld'");
}

TEST(LockRankDeathTest, AssertHeldPassesWhenHeld) {
  Mutex mu(lock_rank::kLeaf, "held");
  MutexLock lock(mu);
  mu.AssertHeld();
}

TEST(LockRankDeathTest, SharedAcquireAfterHigherRankDies) {
  Mutex pool(lock_rank::kThreadPool, "ThreadPool::mu_");
  SharedMutex model(lock_rank::kServerAgent, "TuningServer::model_mu_");
  EXPECT_DEATH(
      {
        MutexLock a(pool);
        ReaderMutexLock b(model);  // 300 after 800, in shared mode.
      },
      "out-of-order acquire of 'TuningServer::model_mu_' \\(rank 300\\)");
}

TEST(LockRankDeathTest, ExclusiveAcquireAfterHigherRankDies) {
  Mutex pool(lock_rank::kThreadPool, "ThreadPool::mu_");
  SharedMutex model(lock_rank::kServerAgent, "TuningServer::model_mu_");
  EXPECT_DEATH(
      {
        MutexLock a(pool);
        WriterMutexLock b(model);
      },
      "out-of-order acquire of 'TuningServer::model_mu_' \\(rank 300\\)");
}

TEST(LockRankDeathTest, LowerRankUnderSharedHoldDies) {
  // A shared hold counts as held: the registry lock may not be taken
  // inside it (the restore commit nests the other way round).
  SharedMutex model(lock_rank::kServerAgent, "TuningServer::model_mu_");
  Mutex registry(lock_rank::kServerSessions, "TuningServer::mu_");
  EXPECT_DEATH(
      {
        ReaderMutexLock a(model);
        MutexLock b(registry);
      },
      "out-of-order acquire of 'TuningServer::mu_' \\(rank 200\\)");
}

TEST(LockRankDeathTest, ReentrantSharedAcquireDies) {
  // A second shared acquire can block behind a queued writer while the
  // first is still held — the detector treats it as re-entry.
  SharedMutex model(lock_rank::kServerAgent, "shared_twice");
  EXPECT_DEATH(
      {
        ReaderMutexLock a(model);
        ReaderMutexLock b(model);
      },
      "re-entrant acquire of 'shared_twice'");
}

TEST(LockRankDeathTest, CondVarWaitWithoutLockDies) {
  Mutex mu(lock_rank::kLeaf, "unwaitable");
  CondVar cv;
  EXPECT_DEATH(cv.Wait(mu), "CondVar::Wait without holding 'unwaitable'");
}

#else

TEST(LockRankTest, DetectorCompilesOutInReleaseBuilds) {
  // Without DCHECK the wrapper must degrade to a bare std::mutex: an
  // acquisition the detector would kill (descending rank) just works.
  Mutex pool(lock_rank::kThreadPool, "pool");
  Mutex registry(lock_rank::kServerSessions, "registry");
  MutexLock a(pool);
  MutexLock b(registry);
}

#endif  // CDBTUNE_DCHECK_ENABLED

}  // namespace
}  // namespace cdbtune::util
