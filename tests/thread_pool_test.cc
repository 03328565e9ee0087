// ThreadPool lifecycle coverage: graceful-shutdown drain semantics,
// Submit-after-Shutdown rejection, reuse after Wait, and thread-count
// clamping. Runs under the TSAN CI job, which is where ordering bugs in
// the queue/shutdown handshake would surface.

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "tests/test_util.h"

namespace flos {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    FLOS_ASSERT_OK(pool.Submit([&ran] {
      ran.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  pool.Wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedAndInFlightTasks) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::atomic<bool> release{false};
  // Two blockers occupy both workers so the remaining tasks are provably
  // still queued when Shutdown begins.
  for (int i = 0; i < 2; ++i) {
    FLOS_ASSERT_OK(pool.Submit([&ran, &release] {
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      ran.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  for (int i = 0; i < 50; ++i) {
    FLOS_ASSERT_OK(pool.Submit([&ran] {
      ran.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  std::thread unblocker([&release] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    release.store(true, std::memory_order_release);
  });
  pool.Shutdown();  // must wait for all 52, not abandon the queued 50
  unblocker.join();
  EXPECT_EQ(ran.load(), 52);
}

TEST(ThreadPoolTest, SubmitAfterShutdownIsRejectedAndNeverRuns) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  FLOS_ASSERT_OK(pool.Submit([&ran] {
    ran.fetch_add(1, std::memory_order_relaxed);
  }));
  pool.Shutdown();
  const Status rejected = pool.Submit([&ran] {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition)
      << rejected.ToString();
  pool.Shutdown();  // idempotent
  EXPECT_EQ(ran.load(), 1) << "rejected task must never execute";
}

TEST(ThreadPoolTest, DestructorAfterShutdownIsSafe) {
  auto pool = std::make_unique<ThreadPool>(2);
  FLOS_ASSERT_OK(pool->Submit([] {}));
  pool->Shutdown();
  pool.reset();  // ~ThreadPool calls Shutdown again; must be a no-op
}

TEST(ThreadPoolTest, WaitThenSubmitMoreWorks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  FLOS_ASSERT_OK(pool.Submit([&count] { count.fetch_add(1); }));
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  for (int i = 0; i < 10; ++i) {
    FLOS_ASSERT_OK(pool.Submit([&count] { count.fetch_add(1); }));
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 11);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      FLOS_ASSERT_OK(pool.Submit([&count] { count.fetch_add(1); }));
    }
    // No Wait(): the destructor must still run every queued task.
  }
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPoolTest, ClampsNonPositiveThreadCounts) {
  ThreadPool pool(0);  // must not deadlock or crash
  std::atomic<int> count{0};
  FLOS_ASSERT_OK(pool.Submit([&count] { count.fetch_add(1); }));
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  EXPECT_GE(ThreadPool::DefaultNumThreads(), 1);
}

}  // namespace
}  // namespace flos
