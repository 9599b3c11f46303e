// mr::Engine: the scoped execution context every evaluation layer takes.
//
// A sweep, a tune or a classification needs three things beyond its
// inputs, and an Engine holds exactly those:
//
//   Engine
//    ├── simmpi::PlanCache   compiled plans, one compile per distinct key
//    │                       across everything this engine serves
//    ├── util::ThreadPool&   the process worker pool (thread_pool())
//    └── SimWorkspace pool   checkout/return leases; reclaimed when the
//                            Engine dies, never shared across engines
//
// Every layer entry point (harness::run_sweep / run_microbench /
// protocol_jobs, tune::tune, classify_orders / distinct_orders /
// characterize_orders, simmpi::World) takes an Engine&; there is no
// process-wide engine and nothing to configure. Two engines never share
// plan-cache or workspace state, even when their work interleaves on the
// same pool threads: the workers hold no state between tasks.
//
// The pool is process-wide rather than per engine because callers build
// an Engine per query: construction must stay as cheap as a few empty
// containers and never spawn or join threads. The pool is created on the
// first thread_pool() call, so callers that run serially never create it.
// The layers reach it only through resolve_workers(), fan_out_slot_count()
// and fan_out() / fan_out_slots() below, which keep that serial fallback
// in one place.
//
// Thread safety: plan_cache(), thread_pool() and workspace() are safe to
// call concurrently; an Engine must outlive every lease checked out of it
// and every call it is passed to.
#pragma once

#include <algorithm>
#include <memory>
#include <mutex>
#include <vector>

#include "mixradix/simmpi/plan_cache.hpp"
#include "mixradix/simmpi/timed_executor.hpp"
#include "mixradix/util/thread_pool.hpp"
#include "mixradix/verify/binding.hpp"

namespace mr {

class Engine {
 public:
  /// A fresh engine: empty plan cache, empty workspace pool.
  Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// This engine's compiled-plan cache.
  simmpi::PlanCache& plan_cache() noexcept { return cache_; }

  /// The stateless verify::binding::BoundCache forwarder (see there); it
  /// holds no state, so every engine hands out the same behaviour.
  static verify::binding::BoundCache bound_cache() noexcept { return {}; }

  /// The process worker pool, shared by every engine and created with
  /// util::ThreadPool::default_threads() workers on the first call.
  util::ThreadPool& thread_pool();

  /// RAII checkout of one SimWorkspace from the engine's pool: the
  /// workspace returns to the pool when the lease dies, and the pool's
  /// memory dies with the engine.
  class WorkspaceLease {
   public:
    /// An empty lease (get() == nullptr); assign from Engine::workspace().
    WorkspaceLease() = default;
    WorkspaceLease(WorkspaceLease&& other) noexcept
        : engine_(other.engine_), workspace_(std::move(other.workspace_)) {
      other.engine_ = nullptr;
    }
    WorkspaceLease& operator=(WorkspaceLease&& other) noexcept {
      if (this != &other) {
        release();
        engine_ = other.engine_;
        workspace_ = std::move(other.workspace_);
        other.engine_ = nullptr;
      }
      return *this;
    }
    WorkspaceLease(const WorkspaceLease&) = delete;
    WorkspaceLease& operator=(const WorkspaceLease&) = delete;
    ~WorkspaceLease() { release(); }

    simmpi::SimWorkspace& operator*() noexcept { return *workspace_; }
    simmpi::SimWorkspace* operator->() noexcept { return workspace_.get(); }
    simmpi::SimWorkspace* get() noexcept { return workspace_.get(); }

   private:
    friend class Engine;
    WorkspaceLease(Engine* engine,
                   std::unique_ptr<simmpi::SimWorkspace> workspace)
        : engine_(engine), workspace_(std::move(workspace)) {}
    void release();

    Engine* engine_ = nullptr;
    std::unique_ptr<simmpi::SimWorkspace> workspace_;
  };

  /// Check a workspace out of the pool (most recently returned first, so
  /// interned routes stay warm), creating one on first use. One lease per
  /// thread — a SimWorkspace is not thread-safe.
  WorkspaceLease workspace();

 private:
  void return_workspace(std::unique_ptr<simmpi::SimWorkspace> workspace);

  simmpi::PlanCache cache_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<simmpi::SimWorkspace>> idle_;  ///< LIFO.
};

/// The `threads` knob every evaluation layer takes, as a worker count:
/// 0 = util::ThreadPool::default_threads(), 1 = serial. Throws
/// mr::invalid_argument when negative.
unsigned resolve_workers(int threads);

/// The number of slots fan_out_slots(engine, n, workers, …) hands out:
/// 1 when it runs inline (one worker or at most one item, without
/// creating the pool), else min(workers, pool size, n). Size per-slot
/// scratch by it, never by the requested worker count.
inline unsigned fan_out_slot_count(Engine& engine, std::size_t n,
                                   unsigned workers) {
  if (workers <= 1 || n <= 1) return 1;
  return static_cast<unsigned>(
      std::min<std::size_t>({workers, engine.thread_pool().size(), n}));
}

/// Runs fn(slot, i) for every i in [0, n) on the threads of
/// engine.thread_pool(); `slot` in [0, fan_out_slot_count(engine, n,
/// workers)) selects per-slot scratch. Results must land in pre-sized
/// slots indexed by i, so the output never depends on the worker count.
/// One slot runs inline on the caller (slot 0).
template <typename Fn>
void fan_out_slots(Engine& engine, std::size_t n, unsigned workers,
                   const Fn& fn) {
  const unsigned slots = fan_out_slot_count(engine, n, workers);
  if (slots <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(0u, i);
  } else {
    engine.thread_pool().parallel_for_slots(n, fn, slots);
  }
}

/// fan_out_slots for bodies that keep no per-slot scratch: fn(i).
template <typename Fn>
void fan_out(Engine& engine, std::size_t n, unsigned workers, const Fn& fn) {
  fan_out_slots(engine, n, workers,
                [&fn](unsigned /*slot*/, std::size_t i) { fn(i); });
}

}  // namespace mr
