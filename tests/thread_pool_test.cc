// ThreadPool: task execution, the Wait barrier, concurrent submission,
// destructor draining, and the zero-worker pool.

#include "serve/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace wazi::serve {
namespace {

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossWaves) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int wave = 1; wave <= 3; ++wave) {
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), 50 * wave);
  }
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
}

TEST(ThreadPoolTest, ConcurrentSubmitters) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&pool, &count] {
      for (int i = 0; i < 250; ++i) {
        pool.Submit(
            [&count] { count.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  pool.Wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(10));
        count.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No Wait(): the destructor must finish the queue before joining.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsStartsNoWorker) {
  // The query engine's pool at num_threads = 1: the caller runs every
  // batch, so the pool starts nothing and has nothing to wait for.
  {
    ThreadPool pool(0);
    EXPECT_EQ(pool.num_threads(), 0);
    pool.Wait();  // must not hang
  }
  ThreadPool clamped(-3);
  EXPECT_EQ(clamped.num_threads(), 0);
  // A task submitted anyway runs on the submitting thread.
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  clamped.Submit([&ran_on] { ran_on = std::this_thread::get_id(); });
  clamped.Wait();
  EXPECT_EQ(ran_on, caller);
}

}  // namespace
}  // namespace wazi::serve
