// A small work-stealing thread pool. The evaluation layers share one
// process pool, reached through mr::Engine::thread_pool().
//
// The paper's workflow — characterize all h! orders, then simulate every
// (order, message size) point of a figure sweep — is embarrassingly
// parallel: each point owns its own simulator instance and touches no
// shared mutable state. The pool fans those points out across cores;
// callers merge results back in input order, so parallel output is
// bit-identical to the serial path.
//
// Design: one FIFO deque per worker. submit() distributes round-robin;
// each worker drains its own deque front-to-back (submission order is
// preserved on a single-worker pool) and steals from the BACK of other
// workers' deques when its own runs dry, so thieves and owners contend on
// opposite ends. parallel_for() does not enqueue one task per index:
// it submits a handful of driver tasks that pull indices from a shared
// atomic cursor (self-balancing, no per-index allocation) and the calling
// thread participates, so a pool is never a bottleneck for its own caller
// and `max_workers == 1` degenerates to an inline serial loop.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mr::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least one).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueue one task. The future becomes ready when the task returns;
  /// an exception escaping the task is captured into the future.
  std::future<void> submit(std::function<void()> task);

  /// Run body(0) ... body(n-1), blocking until all complete. At most
  /// `max_workers` threads run concurrently (0 = the whole pool); the
  /// calling thread always participates, and with one effective worker
  /// the loop runs inline on the caller. The first exception thrown by
  /// `body` cancels the remaining indices and is rethrown here.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                    unsigned max_workers = 0);

  /// parallel_for variant whose body also receives a stable slot id in
  /// [0, effective workers): every participating thread drives its indices
  /// under one slot (the caller is always slot 0), so a caller can hand
  /// each slot a private scratch buffer without locks or thread_locals —
  /// scratch lifetime follows the call, not the pool threads. Slot
  /// assignment only selects scratch; which indices run, and the
  /// serial-fallback contract, match parallel_for exactly.
  void parallel_for_slots(
      std::size_t n, const std::function<void(unsigned, std::size_t)>& body,
      unsigned max_workers = 0);

  /// The largest MIXRADIX_THREADS value default_threads() accepts.
  static constexpr long kMaxDefaultThreads = 1024;

  /// Thread count used when the caller does not pin one: the
  /// MIXRADIX_THREADS environment variable when set to an integer in
  /// [1, kMaxDefaultThreads], else std::thread::hardware_concurrency()
  /// (minimum 1). A malformed or larger value falls back the same way, so
  /// a typo can neither wrap to a small count nor size a huge pool.
  /// Re-read on every call so tests and ctest wrappers can override it.
  static unsigned default_threads();

 private:
  struct Worker {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;  ///< front = oldest.
  };

  void worker_loop(std::size_t self);
  bool pop_own(std::size_t self, std::function<void()>& task);
  bool steal(std::size_t self, std::function<void()>& task);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::mutex wake_mutex_;
  std::condition_variable wake_;
  std::atomic<std::size_t> queued_{0};  ///< tasks sitting in some deque.
  std::atomic<std::size_t> next_queue_{0};
  bool stop_ = false;  ///< guarded by wake_mutex_.
};

}  // namespace mr::util
