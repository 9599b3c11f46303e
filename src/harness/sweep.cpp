#include "mixradix/engine/engine.hpp"
#include "mixradix/harness/microbench.hpp"
#include "mixradix/util/expect.hpp"

namespace mr::harness {

std::vector<std::int64_t> paper_sizes(std::int64_t max_bytes) {
  // The paper's x-axis ticks: 16 KB, 128 KB, 1 MB, 8 MB, 64 MB, 512 MB.
  std::vector<std::int64_t> sizes;
  for (std::int64_t s = 16ll << 10; s <= max_bytes; s *= 8) {
    sizes.push_back(s);
  }
  return sizes;
}

// Every (order, size) point is an independent simulation: run_microbench
// builds its own schedules, TimedExecutor and FlowSim, and only reads the
// (immutable) machine. Points fan out across the engine's pool and land in
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

  std::vector<SweepSeries> out(norders);
  for (std::size_t oi = 0; oi < norders; ++oi) {
    out[oi].sizes = config.sizes;
    out[oi].results.resize(nsizes);
  }

  const auto point = [&](std::size_t task) {
    const std::size_t oi = task / nsizes;
    const std::size_t si = task % nsizes;
    if (si == 0) {
      // Legend characterization goes through the closed-form kernels: for
      // an h! enumeration the O(s^2) reference pair scan would rival the
      // simulations themselves (bit-identical either way, see the
      // ClosedForm and HashedClassifier tests).
      out[oi].character =
          characterize_order(machine.hierarchy(), config.orders[oi],
                             config.comm_size, MetricsImpl::Fast);
    }
    // run_microbench leases a workspace from the engine's pool, LIFO, so a
    // worker's next point reuses warm arrays and interned routes; results
    // do not depend on reuse (the Sweep and TimedExecutor determinism
    // tests).
    MicrobenchConfig mb;
    mb.order = config.orders[oi];
    mb.comm_size = config.comm_size;
    mb.collective = config.collective;
    mb.total_bytes = config.sizes[si];
    mb.all_comms = config.all_comms;
    mb.repetitions = config.repetitions;
    mb.completion_slack = config.completion_slack;
    out[oi].results[si] = run_microbench(engine, machine, mb);
  };

  fan_out(engine, norders * nsizes, workers, point);
  return out;
}

}  // namespace mr::harness
