#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>

#include "common/error.h"

namespace muffin::common {
namespace {

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool(0), Error);
}

TEST(ThreadPool, RunsSubmittedJobsAndReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([i]() { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.submit([]() { return 7; });
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error("job exploded"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW((void)bad.get(), std::runtime_error);
  // A failed job must not take its worker down: the pool still runs jobs.
  EXPECT_EQ(pool.submit([]() { return 11; }).get(), 11);
}

TEST(ThreadPool, CurrentWorkerIndexIsSetInsideJobsOnly) {
  EXPECT_EQ(ThreadPool::current_worker(), ThreadPool::npos);
  ThreadPool pool(3);
  std::mutex mutex;
  std::set<std::size_t> seen;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&]() {
      const std::size_t w = ThreadPool::current_worker();
      ASSERT_LT(w, 3u);
      const std::lock_guard<std::mutex> lock(mutex);
      seen.insert(w);
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_FALSE(seen.empty());
  for (const std::size_t w : seen) EXPECT_LT(w, 3u);
}

TEST(ThreadPool, ShutdownCompletesRunningJobs) {
  std::atomic<int> completed{0};
  {
    ThreadPool pool(2);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 8; ++i) {
      futures.push_back(pool.submit([&completed]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        completed.fetch_add(1);
      }));
    }
    for (auto& f : futures) f.get();
  }  // destructor joins
  EXPECT_EQ(completed.load(), 8);
}

TEST(ThreadPool, DestructorDiscardsPendingJobsWithBrokenPromises) {
  std::future<void> never_ran;
  {
    ThreadPool pool(1);
    // First job blocks the lone worker long enough for the second to still
    // be queued when the destructor runs.
    auto blocker = pool.submit([]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    });
    never_ran = pool.submit([]() {});
  }
  // Either the job squeaked in before the destructor took the lock, or its
  // promise was broken — it must not hang.
  const auto status = never_ran.wait_for(std::chrono::seconds(0));
  EXPECT_EQ(status, std::future_status::ready);
  try {
    never_ran.get();
  } catch (const std::future_error& e) {
    EXPECT_EQ(e.code(), std::future_errc::broken_promise);
  }
}

TEST(ThreadPool, ShutdownWithDeepBacklogNeverHangsOrDropsSilently) {
  // A large queued backlog at destruction time: running jobs complete,
  // queued jobs either run or surface broken_promise — every future must
  // resolve, and completed + discarded must account for every job.
  constexpr std::size_t kJobs = 128;
  std::atomic<int> completed{0};
  std::atomic<bool> started{false};
  std::vector<std::future<void>> futures;
  futures.reserve(kJobs);
  {
    ThreadPool pool(2);
    for (std::size_t i = 0; i < kJobs; ++i) {
      futures.push_back(pool.submit([&completed, &started]() {
        started.store(true);
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        completed.fetch_add(1);
      }));
    }
    // Ensure at least one job is genuinely running when the destructor
    // hits, so both the complete-running and discard-queued paths fire.
    while (!started.load()) std::this_thread::yield();
  }  // destructor: discards the backlog, joins the workers
  int discarded = 0;
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    try {
      future.get();
    } catch (const std::future_error& e) {
      EXPECT_EQ(e.code(), std::future_errc::broken_promise);
      ++discarded;
    }
  }
  EXPECT_EQ(completed.load() + discarded, static_cast<int>(kJobs));
  EXPECT_GT(completed.load(), 0);  // the running jobs did complete
}

TEST(ThreadPool, ExceptionInQueuedTaskReachesOnlyItsFuture) {
  // Interleave failing and healthy jobs on a pool narrower than the
  // backlog: every failure propagates to exactly its own future and no
  // neighbour is poisoned — the engine relies on this to keep one bad
  // batch from failing the batches queued behind it.
  ThreadPool pool(2);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([i]() -> int {
      if (i % 3 == 0) throw std::runtime_error("task " + std::to_string(i));
      return i;
    }));
  }
  for (int i = 0; i < 64; ++i) {
    auto& future = futures[static_cast<std::size_t>(i)];
    if (i % 3 == 0) {
      try {
        (void)future.get();
        FAIL() << "task " << i << " should have thrown";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "task " + std::to_string(i));
      }
    } else {
      EXPECT_EQ(future.get(), i);
    }
  }
  // The pool survives all 22 failures with every worker intact.
  EXPECT_EQ(pool.submit([]() { return 99; }).get(), 99);
}

TEST(ThreadPool, ParallelJobsAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter]() { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
  EXPECT_EQ(pool.pending(), 0u);
}

}  // namespace
}  // namespace muffin::common
