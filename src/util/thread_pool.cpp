#include "mixradix/util/thread_pool.hpp"

#include <cstdlib>
#include <exception>
#include <string>

#include "mixradix/util/expect.hpp"

namespace mr::util {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  auto packaged =
      std::make_shared<std::packaged_task<void()>>(std::move(task));
  std::future<void> future = packaged->get_future();
  const std::size_t target =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  {
    std::lock_guard<std::mutex> lock(workers_[target]->mutex);
    workers_[target]->tasks.emplace_back([packaged] { (*packaged)(); });
  }
  {
    // The increment must be ordered with the wait predicate's read (both
    // under wake_mutex_), or a worker between its predicate check and the
    // actual block could miss this wakeup forever.
    std::lock_guard<std::mutex> lock(wake_mutex_);
    queued_.fetch_add(1, std::memory_order_release);
  }
  wake_.notify_one();
  return future;
}

bool ThreadPool::pop_own(std::size_t self, std::function<void()>& task) {
  Worker& w = *workers_[self];
  std::lock_guard<std::mutex> lock(w.mutex);
  if (w.tasks.empty()) return false;
  task = std::move(w.tasks.front());
  w.tasks.pop_front();
  return true;
}

bool ThreadPool::steal(std::size_t self, std::function<void()>& task) {
  const std::size_t n = workers_.size();
  for (std::size_t k = 1; k < n; ++k) {
    Worker& w = *workers_[(self + k) % n];
    std::lock_guard<std::mutex> lock(w.mutex);
    if (w.tasks.empty()) continue;
    task = std::move(w.tasks.back());
    w.tasks.pop_back();
    return true;
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  while (true) {
    std::function<void()> task;
    if (pop_own(self, task) || steal(self, task)) {
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    if (stop_) return;
    wake_.wait(lock, [this] {
      return stop_ || queued_.load(std::memory_order_acquire) > 0;
    });
    if (stop_) return;
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body,
                              unsigned max_workers) {
  parallel_for_slots(
      n, [&body](unsigned /*slot*/, std::size_t i) { body(i); }, max_workers);
}

void ThreadPool::parallel_for_slots(
    std::size_t n, const std::function<void(unsigned, std::size_t)>& body,
    unsigned max_workers) {
  if (n == 0) return;
  unsigned workers = size();
  if (max_workers != 0 && max_workers < workers) workers = max_workers;
  if (static_cast<std::size_t>(workers) > n) {
    workers = static_cast<unsigned>(n);
  }
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(0, i);
    return;
  }

  std::atomic<std::size_t> cursor{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto drive = [&](unsigned slot) {
    while (true) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(slot, i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
        }
        cursor.store(n, std::memory_order_relaxed);  // cancel the rest.
        return;
      }
    }
  };

  std::vector<std::future<void>> helpers;
  helpers.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) {
    helpers.push_back(submit([&drive, w] { drive(w); }));
  }
  drive(0);  // the caller participates as slot 0.
  for (std::future<void>& f : helpers) f.get();
  if (error) std::rethrow_exception(error);
}

unsigned ThreadPool::default_threads() {
  if (const char* env = std::getenv("MIXRADIX_THREADS")) {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && value >= 1 &&
        value <= kMaxDefaultThreads) {
      return static_cast<unsigned>(value);
    }
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

}  // namespace mr::util
