// Anytime-search budgets for the mapping autotuner (mixradix/tune/search.hpp).
//
// The funnel's expensive resource is a *point simulation* — one
// TimedExecutor run of (candidate order, query point). A Budget caps how
// many of those the search may spend (and, optionally, how long it may run
// in wall-clock seconds); the search charges the meter between waves and
// returns the best-so-far ranking with `TuneStats::exhausted == false` when
// either cap trips.
//
// Point budgets are deterministic: the same query with the same max_points
// truncates at exactly the same candidate regardless of the thread count
// (enforced by the budget-truncation determinism test). Wall-clock budgets
// are inherently machine-dependent and exist for interactive use; anything
// that must reproduce byte-identically should cap points, not seconds.
#pragma once

#include <chrono>
#include <cstdint>

namespace mr::tune {

struct Budget {
  /// Point simulations the search may run; 0 = unlimited.
  std::int64_t max_points = 0;
  /// Wall-clock cap in seconds, checked between waves; 0 = unlimited.
  /// Non-deterministic by nature — see the header comment.
  double max_seconds = 0;
};

/// Running meter over one search: charge() after each simulated wave,
/// exhausted() before starting the next.
class BudgetMeter {
 public:
  explicit BudgetMeter(const Budget& budget)
      : budget_(budget), start_(std::chrono::steady_clock::now()) {}

  void charge(std::int64_t points) { used_ += points; }
  std::int64_t points_used() const { return used_; }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  /// True once either cap is reached. With a point cap, how many MORE
  /// candidates fit is what matters — see remaining_points().
  bool exhausted() const {
    if (budget_.max_points > 0 && used_ >= budget_.max_points) return true;
    if (budget_.max_seconds > 0 && elapsed_seconds() >= budget_.max_seconds) {
      return true;
    }
    return false;
  }

  /// Point simulations still affordable; INT64_MAX when uncapped.
  std::int64_t remaining_points() const {
    if (budget_.max_points <= 0) return INT64_MAX;
    return budget_.max_points > used_ ? budget_.max_points - used_ : 0;
  }

 private:
  Budget budget_;
  std::int64_t used_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mr::tune
