#include <map>

#include "mixradix/engine/engine.hpp"
#include "mixradix/harness/microbench.hpp"
#include "mixradix/util/expect.hpp"

namespace mr::harness {

std::vector<std::int64_t> paper_sizes(std::int64_t max_bytes) {
  // The paper's x-axis ticks: 16 KB, 128 KB, 1 MB, 8 MB, 64 MB, 512 MB.
  std::vector<std::int64_t> sizes;
  for (std::int64_t s = 16ll << 10; s <= max_bytes; s *= 8) {
    sizes.push_back(s);
    if (s > max_bytes / 8) break;  // the next tick would pass max_bytes.
  }
  return sizes;
}

// One simulation per sound class: orders with equal sound_class_keys
// simulate bit for bit alike, so per size only each class's first order
// (in config order) runs run_microbench, and the class's other orders copy
// its result. Every order still gets its own legend characterization.
// Simulations resolve plans through the engine's cache and lease their
// workspaces from its pool, and only read the (immutable) machine. The
// (class, size) points fan out across the engine's pool and land in
// pre-sized slots indexed by (order, size), so the merged output is
// bit-identical to the serial path regardless of the thread count or the
// completion order of the tasks.
std::vector<SweepSeries> run_sweep(Engine& engine,
                                   const topo::Machine& machine,
                                   const SweepConfig& config) {
  MR_EXPECT(!config.orders.empty(), "sweep needs orders");
  MR_EXPECT(!config.sizes.empty(), "sweep needs sizes");
  const unsigned workers = resolve_workers(config.threads);
  const std::size_t norders = config.orders.size();
  const std::size_t nsizes = config.sizes.size();

  MicrobenchConfig mb;
  mb.comm_size = config.comm_size;
  mb.collective = config.collective;
  mb.total_bytes = config.sizes.front();
  mb.all_comms = config.all_comms;
  mb.repetitions = config.repetitions;
  mb.completion_slack = config.completion_slack;

  // Member order indices per class, classes in order of first appearance.
  std::vector<std::vector<std::size_t>> classes;
  std::map<std::vector<std::int64_t>, std::size_t> class_of;
  for (std::size_t oi = 0; oi < norders; ++oi) {
    mb.order = config.orders[oi];
    const auto [it, inserted] = class_of.try_emplace(
        sound_class_key(machine.hierarchy(), mb), classes.size());
    if (inserted) classes.emplace_back();
    classes[it->second].push_back(oi);
  }

  std::vector<SweepSeries> out(norders);
  for (std::size_t oi = 0; oi < norders; ++oi) {
    out[oi].sizes = config.sizes;
    out[oi].results.resize(nsizes);
  }

  const auto point = [&](std::size_t task) {
    const std::vector<std::size_t>& members = classes[task / nsizes];
    const std::size_t si = task % nsizes;
    if (si == 0) {
      // Legend characterization goes through the closed-form kernels: for
      // an h! enumeration the O(s^2) reference pair scan would rival the
      // simulations themselves (bit-identical either way, see the
      // ClosedForm and DigitClassifier tests).
      for (const std::size_t oi : members) {
        out[oi].character =
            characterize_order(machine.hierarchy(), config.orders[oi],
                               config.comm_size, MetricsImpl::Fast);
      }
    }
    // run_microbench leases a workspace from the engine's pool, LIFO, so a
    // worker's next point reuses warm arrays and interned routes; results
    // do not depend on reuse (the Sweep and TimedExecutor determinism
    // tests).
    MicrobenchConfig run = mb;
    run.order = config.orders[members.front()];
    run.total_bytes = config.sizes[si];
    const MicrobenchResult result = run_microbench(engine, machine, run);
    for (const std::size_t oi : members) out[oi].results[si] = result;
  };

  fan_out(engine, classes.size() * nsizes, workers, point);
  return out;
}

}  // namespace mr::harness
