#include "mixradix/engine/engine.hpp"

#include <utility>

#include "mixradix/util/expect.hpp"

namespace mr {

util::ThreadPool& Engine::thread_pool() {
  static util::ThreadPool pool(util::ThreadPool::default_threads());
  return pool;
}

unsigned resolve_workers(int threads) {
  MR_EXPECT(threads >= 0, "threads must be non-negative");
  return threads > 0 ? static_cast<unsigned>(threads)
                     : util::ThreadPool::default_threads();
}

Engine::WorkspaceLease Engine::workspace() {
  std::unique_ptr<simmpi::SimWorkspace> ws;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!idle_.empty()) {
      ws = std::move(idle_.back());
      idle_.pop_back();
    }
  }
  if (!ws) ws = std::make_unique<simmpi::SimWorkspace>();
  return WorkspaceLease(this, std::move(ws));
}

void Engine::return_workspace(std::unique_ptr<simmpi::SimWorkspace> ws) {
  std::lock_guard<std::mutex> lock(mutex_);
  idle_.push_back(std::move(ws));
}

void Engine::WorkspaceLease::release() {
  if (engine_ != nullptr && workspace_ != nullptr) {
    engine_->return_workspace(std::move(workspace_));
  }
  engine_ = nullptr;
}

}  // namespace mr
