// The work-stealing pool behind the parallel sweep engine.
#include "mixradix/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace mr::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SingleWorkerPreservesSubmissionOrder) {
  // One worker, one deque, drained front-to-back: strict FIFO.
  ThreadPool pool(1);
  std::vector<int> ran;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([&ran, i] { ran.push_back(i); }));
  }
  for (auto& f : futures) f.get();
  std::vector<int> expected(50);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(ran, expected);
}

TEST(ThreadPool, SubmitCapturesExceptionsIntoTheFuture) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The worker survives the throwing task.
  auto ok = pool.submit([] {});
  EXPECT_NO_THROW(ok.get());
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&hits](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForZeroAndOneIndex) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForPropagatesTheBodyException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(1000, [&ran](std::size_t i) {
      if (i == 37) throw std::runtime_error("index 37 boom");
      ++ran;
    });
    FAIL() << "expected the body's exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 37 boom");
  }
  // The throw cancels the remaining indices.
  EXPECT_LT(ran.load(), 1000);
}

TEST(ThreadPool, PoolOfSizeOneRunsInlineOnTheCaller) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::set<std::thread::id> seen;
  pool.parallel_for(64, [&](std::size_t) { seen.insert(std::this_thread::get_id()); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(*seen.begin(), caller);
}

TEST(ThreadPool, MaxWorkersOneRunsInlineEvenOnABiggerPool) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::set<std::thread::id> seen;
  pool.parallel_for(
      64, [&](std::size_t) { seen.insert(std::this_thread::get_id()); },
      /*max_workers=*/1);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(*seen.begin(), caller);
}

TEST(ThreadPool, ParallelForUsesMultipleThreadsWhenAllowed) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::set<std::thread::id> seen;
  pool.parallel_for(256, [&](std::size_t) {
    // Enough work per index that helpers actually get scheduled.
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    std::lock_guard<std::mutex> lock(mutex);
    seen.insert(std::this_thread::get_id());
  });
  // Caller + at least one helper (can't assert 4 on a loaded 1-core box).
  EXPECT_GE(seen.size(), 1u);
  EXPECT_LE(seen.size(), 5u);  // 4 workers + the caller.
}

TEST(ThreadPool, DefaultThreadsHonoursTheEnvOverride) {
  // Restore the caller's value: the process pool may already be sized
  // from it, and later tests compare against default_threads().
  const char* caller = std::getenv("MIXRADIX_THREADS");
  const std::string saved = caller != nullptr ? caller : "";
  ASSERT_EQ(setenv("MIXRADIX_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::default_threads(), 3u);
  ASSERT_EQ(setenv("MIXRADIX_THREADS", "1024", 1), 0);
  EXPECT_EQ(ThreadPool::default_threads(), 1024u);
  // Malformed or out-of-range values fall back to hardware_concurrency:
  // 2^32 + 1 must not wrap to 1, and a million must not size the pool.
  // Only default_threads() reads them; no pool is built from them.
  std::vector<unsigned> fallbacks;
  for (const char* bad : {"not-a-number", "1025", "1000000", "4294967297"}) {
    ASSERT_EQ(setenv("MIXRADIX_THREADS", bad, 1), 0);
    fallbacks.push_back(ThreadPool::default_threads());
  }
  ASSERT_EQ(unsetenv("MIXRADIX_THREADS"), 0);
  const unsigned unset = ThreadPool::default_threads();
  EXPECT_GE(unset, 1u);
  EXPECT_EQ(fallbacks, std::vector<unsigned>(fallbacks.size(), unset));
  if (caller != nullptr) setenv("MIXRADIX_THREADS", saved.c_str(), 1);
}

TEST(ThreadPool, StressManySmallParallelFors) {
  // Repeated fan-out/join cycles must not deadlock or drop indices.
  ThreadPool pool(4);
  for (int round = 0; round < 100; ++round) {
    std::atomic<int> sum{0};
    pool.parallel_for(64, [&sum](std::size_t i) {
      sum += static_cast<int>(i);
    });
    ASSERT_EQ(sum.load(), 64 * 63 / 2);
  }
}

}  // namespace
}  // namespace mr::util
