// The §4.1 experimental protocol:
//   1. reorder MPI_COMM_WORLD under an enumeration order,
//   2. split into equal subcommunicators (consecutive reordered ranks),
//   3. run the collective in the FIRST subcommunicator only,
//   4. run it in ALL subcommunicators simultaneously,
// reporting bandwidth = total collective payload / average per-op duration.
//
// The paper times a 0.5 s steady-state window; the simulator is
// deterministic, so a small number of back-to-back repetitions reaches the
// same steady state without the noise the window exists to average away.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mixradix/mr/metrics.hpp"
#include "mixradix/mr/permutation.hpp"
#include "mixradix/simmpi/collectives.hpp"
#include "mixradix/simmpi/timed_executor.hpp"
#include "mixradix/topo/machine.hpp"

namespace mr {
class Engine;  // mixradix/engine/engine.hpp
}  // namespace mr

namespace mr::harness {

struct MicrobenchConfig {
  Order order;
  std::int64_t comm_size = 0;
  simmpi::Collective collective = simmpi::Collective::Alltoall;
  /// The paper's x-axis "size": comm_size * count * sizeof(datatype) bytes.
  std::int64_t total_bytes = 0;
  bool all_comms = false;  ///< false: first subcommunicator only.
  int repetitions = 2;     ///< back-to-back operations per communicator.
  /// Forwarded to simmpi::ExecOptions::completion_slack (0 = exact).
  double completion_slack = 0.0;
};

struct MicrobenchResult {
  double makespan = 0;             ///< completion of the last communicator.
  double mean_seconds_per_op = 0;  ///< averaged over communicators and reps.
  double mean_bandwidth = 0;       ///< total_bytes / seconds_per_op, mean.
  double bw_p10 = 0;               ///< first decile over communicators.
  double bw_p90 = 0;               ///< last decile over communicators.
  std::string algorithm;           ///< which collective algorithm ran.
};

/// Run one protocol instance on `machine` (one process per core), resolving
/// plans and workspaces through `engine`. The one implementation of a
/// protocol point: run_sweep runs one per (sound class, size), and
/// mr::tune's stage 3 one per (candidate, query point).
MicrobenchResult run_microbench(Engine& engine, const topo::Machine& machine,
                                const MicrobenchConfig& config);

/// The one sound dedup rule for protocol points, shared by run_sweep and
/// mr::tune's stage 1: two configs that differ only in `order` simulate bit
/// for bit alike when their keys are equal, so one run_microbench serves
/// both. The key stands for the part of the simulation input the order
/// decides, and is read in O(h) off the order's digits (mr::class_key):
///  * first subcommunicator only: its core sequence, the run's whole input
///    at any slack (mr::first_comm_key);
///  * all subcommunicators at slack 0: the sorted multiset of their core
///    sequences (mr::Equivalence::SameSetsAndInternal), because exact
///    max-min timing does not depend on the order of the job list;
///  * all subcommunicators at slack > 0: the whole placement
///    (ExactPlacement), because completion merging does.
/// Each key is tagged and length-prefixed, so keys concatenated over comm
/// sizes stay unambiguous. Validates `config` as protocol_jobs does; reads
/// no plan and no engine.
std::vector<std::int64_t> sound_class_key(const Hierarchy& h,
                                          const MicrobenchConfig& config);

/// Steps 1-2 of the protocol without running anything: the compiled plan
/// (from the engine's plan cache) and per-communicator core bindings
/// run_microbench would execute (`config.completion_slack` is ignored).
/// mr::tune's stage 2 bounds these jobs statically before its stage 3
/// simulates the survivors through run_microbench.
std::vector<simmpi::PlanJob> protocol_jobs(Engine& engine,
                                           const topo::Machine& machine,
                                           const MicrobenchConfig& config);

/// One figure series: an order swept over message sizes.
struct SweepSeries {
  OrderCharacter character;  ///< the legend tuple (order, ring cost, pcts).
  std::vector<std::int64_t> sizes;
  std::vector<MicrobenchResult> results;
};

struct SweepConfig {
  std::vector<Order> orders;
  std::vector<std::int64_t> sizes;
  std::int64_t comm_size = 0;
  simmpi::Collective collective = simmpi::Collective::Alltoall;
  bool all_comms = false;
  int repetitions = 2;
  /// Worker threads fanning the (class, size) points out. 0 = use
  /// util::ThreadPool::default_threads() (MIXRADIX_THREADS env override,
  /// else hardware_concurrency); 1 = force the serial in-thread path.
  /// Results are merged in input order, so the output is bit-identical
  /// for every thread count.
  int threads = 0;
  /// Forwarded to MicrobenchConfig::completion_slack (0 = exact).
  double completion_slack = 0.0;
};

/// Run the sweep through `engine`: plans from its cache, point workspaces
/// leased from its pool, points fanned over its thread pool. Orders with
/// equal sound_class_keys share one run_microbench per size and get
/// copies of its result; each order gets its own legend character. Output
/// is byte-identical for every engine and thread count, and to one
/// run_microbench per (order, size).
std::vector<SweepSeries> run_sweep(Engine& engine,
                                   const topo::Machine& machine,
                                   const SweepConfig& config);

/// The six x-tick sizes of the paper's figures: 16 KB ... 512 MB.
std::vector<std::int64_t> paper_sizes(std::int64_t max_bytes = 512ll << 20);

// ---- Reporting -------------------------------------------------------------

/// Print a figure as an aligned text table: one row per size, one column
/// pair (bandwidth MB/s) per order; legend lines first, one per plotted
/// order (single-comm block first, then orders only the all-comms block
/// plots).
void print_figure(std::ostream& os, const std::string& title,
                  const std::vector<SweepSeries>& single,
                  const std::vector<SweepSeries>& simultaneous);

/// Machine-readable CSV: columns figure,scenario,order,size,bandwidth_mbs,...
void write_figure_csv(std::ostream& os, const std::string& figure,
                      const std::vector<SweepSeries>& single,
                      const std::vector<SweepSeries>& simultaneous);

}  // namespace mr::harness
