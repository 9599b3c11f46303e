// PlanCache: thread-safe memoization of compile_plan.
//
// A sweep evaluates every (order, size) point of an h!-order enumeration,
// but the compiled artifact depends only on (algorithm, p, count, root,
// repetitions) — the cache makes schedule generation (and, in verifying
// builds, static analysis) run exactly once per distinct key across all
// orders and all sweep worker threads. Concurrent first requests for the
// same key block on one compilation (promise/future under the map lock);
// no key is ever compiled twice.
//
// Each mr::Engine owns one; the harness, the tuner and World resolve plans
// through their engine's cache. The cache is unbounded: a benchmark query
// holds a handful of keys (one per message size).
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "mixradix/simmpi/plan.hpp"

namespace mr::simmpi {

struct PlanKey {
  std::string algorithm;
  std::int32_t nranks = 0;
  std::int64_t count = 0;
  std::int32_t root = 0;
  int repetitions = 1;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& key) const noexcept;
};

class PlanCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;  ///< == number of compilations started.
    std::size_t entries = 0;
    double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(total);
    }
  };

  /// The plan for `key`, compiling it on first request. Concurrent callers
  /// of the same key share one compilation. A compilation failure (unknown
  /// algorithm, unsupported p) rethrows for every requester of that key.
  std::shared_ptr<const Plan> get(const PlanKey& key);

  Stats stats() const;
  /// Drop every entry and reset the counters.
  void clear();

 private:
  mutable std::mutex mutex_;
  std::unordered_map<PlanKey, std::shared_future<std::shared_ptr<const Plan>>,
                     PlanKeyHash>
      map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace mr::simmpi
