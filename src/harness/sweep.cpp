#include "mixradix/engine/engine.hpp"
#include "mixradix/harness/microbench.hpp"
#include "mixradix/tune/search.hpp"
#include "mixradix/util/expect.hpp"

namespace mr::harness {

namespace {

/// SweepConfig::tune_top_k screening: ask the autotuner for the top-K
/// orders of this sweep's workload and plot those instead of the given
/// list. The query mirrors the sweep exactly (same collective, comm size,
/// sizes, concurrency, repetitions, slack), so the tuner's objective — the
/// sum of point makespans — ranks orders by the very curves the sweep will
/// draw.
std::vector<Order> tuned_orders(Engine& engine, const topo::Machine& machine,
                                const SweepConfig& config) {
  tune::TuneQuery query;
  query.collectives = {config.collective};
  query.comm_sizes = {config.comm_size};
  query.total_bytes = config.sizes;
  query.concurrency = config.all_comms ? tune::Concurrency::AllComms
                                       : tune::Concurrency::SingleComm;
  query.k = config.tune_top_k;
  query.repetitions = config.repetitions;
  query.completion_slack = config.completion_slack;
  query.threads = config.threads;
  const tune::TuneReport report = tune::tune(engine, machine, query);
  std::vector<Order> orders;
  orders.reserve(report.top.size());
  for (const std::size_t idx : report.top) {
    orders.push_back(report.candidates[idx].order);
  }
  return orders;
}

}  // namespace

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
                                   const SweepConfig& input) {
  MR_EXPECT(input.tune_top_k > 0 || !input.orders.empty(),
            "sweep needs orders (or tune_top_k to find them)");
  MR_EXPECT(!input.sizes.empty(), "sweep needs sizes");
  const unsigned workers = resolve_workers(input.threads);
  SweepConfig config = input;
  if (config.tune_top_k > 0) {
    config.orders = tuned_orders(engine, machine, input);
  }
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
    // run_microbench leases a workspace from the engine's pool: every
    // point a worker simulates reuses flow-simulator arrays, the event
    // heap and interned routes (the pool hands the most recently returned
    // workspace back first), which is what keeps a 5040-order enumeration
    // from paying allocation churn per point — and, unlike the old
    // function-scoped thread_local, the memory is reclaimed when the
    // engine dies and never shared across engines. Results are
    // independent of reuse by construction (bit-identity is enforced by
    // the Sweep and TimedExecutor determinism tests).
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
