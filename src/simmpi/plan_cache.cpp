#include "mixradix/simmpi/plan_cache.hpp"

#include <functional>
#include <utility>

namespace mr::simmpi {

std::size_t PlanKeyHash::operator()(const PlanKey& key) const noexcept {
  std::size_t h = std::hash<std::string>{}(key.algorithm);
  const auto mix = [&h](std::uint64_t v) {
    // splitmix64-style avalanche, folded into the running hash.
    v += 0x9e3779b97f4a7c15ull + h;
    v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ull;
    v = (v ^ (v >> 27)) * 0x94d049bb133111ebull;
    h = static_cast<std::size_t>(v ^ (v >> 31));
  };
  mix(static_cast<std::uint64_t>(key.nranks));
  mix(static_cast<std::uint64_t>(key.count));
  mix(static_cast<std::uint64_t>(key.root));
  mix(static_cast<std::uint64_t>(key.repetitions));
  return h;
}

std::shared_ptr<const Plan> PlanCache::get(const PlanKey& key) {
  std::promise<std::shared_ptr<const Plan>> promise;
  std::shared_future<std::shared_ptr<const Plan>> future;
  bool compile_here = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      ++hits_;
      future = it->second;
    } else {
      ++misses_;
      future = promise.get_future().share();
      map_.emplace(key, future);
      compile_here = true;
    }
  }
  if (compile_here) {
    try {
      promise.set_value(std::make_shared<const Plan>(
          compile_plan(key.algorithm, key.nranks, key.count, key.root,
                       key.repetitions)));
    } catch (...) {
      // Deterministic failures (unknown algorithm, unsupported p) stay
      // cached: every requester of this key sees the same exception.
      promise.set_exception(std::current_exception());
    }
  }
  return future.get();
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Stats{hits_, misses_, map_.size()};
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
  hits_ = 0;
  misses_ = 0;
}

}  // namespace mr::simmpi
