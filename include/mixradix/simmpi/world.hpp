// World / Communicator: the MPI-flavoured facade over the simulator.
//
// Examples and applications hold a World (a machine with one process per
// core), reorder it with a mixed-radix order exactly like the paper's
// MPI_Comm_split deployment, split it into subcommunicators, and time
// collectives — without touching schedules or executors directly.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mixradix/mr/permutation.hpp"
#include "mixradix/mr/reorder.hpp"
#include "mixradix/simmpi/collectives.hpp"
#include "mixradix/simmpi/timed_executor.hpp"
#include "mixradix/topo/machine.hpp"

namespace mr {
class Engine;  // mixradix/engine/engine.hpp
}  // namespace mr

namespace mr::simmpi {

class World;

/// A set of processes with contiguous ranks 0..size-1, each bound to a
/// machine core. Cheap to copy (shares the World's machine).
class Communicator {
 public:
  std::int32_t size() const { return static_cast<std::int32_t>(cores_.size()); }

  /// Core hosting communicator rank r.
  std::int64_t core_of(std::int32_t rank) const;
  const std::vector<std::int64_t>& cores() const noexcept { return cores_; }

  /// MPI_Comm_split: processes with the same color form a new communicator,
  /// ordered by (key, current rank). colors/keys are indexed by rank.
  std::vector<Communicator> split(const std::vector<std::int64_t>& colors,
                                  const std::vector<std::int64_t>& keys) const;

  /// Split into consecutive blocks of `comm_size` ranks (§3.2's coloring).
  std::vector<Communicator> split_blocks(std::int64_t comm_size) const;

  /// MPI_Comm_split_type "guided mode" (MPI-4, §3.2): one communicator per
  /// machine component at hierarchy `level` that hosts members of this
  /// communicator; members keep their relative rank order.
  std::vector<Communicator> split_by_level(int level) const;

  /// Simulated duration of one collective on this communicator, alone on
  /// the machine. `count` follows the collective's convention (doubles).
  /// Plans resolve through the World's engine (its cache, its stats).
  double time_collective(Collective kind, std::int64_t count,
                         std::int32_t root = 0) const;

  /// Simulated duration when every communicator in `comms` runs `kind`
  /// simultaneously (returns the makespan). Routed through the engine of
  /// the first communicator's World.
  static double time_concurrent(const std::vector<Communicator>& comms,
                                Collective kind, std::int64_t count);

  const topo::Machine& machine() const noexcept { return *machine_; }

  /// The engine of the World this communicator descends from.
  Engine& engine() const noexcept { return *engine_; }

 private:
  friend class World;
  Communicator(Engine* engine, std::shared_ptr<const topo::Machine> machine,
               std::vector<std::int64_t> cores);

  Engine* engine_;  ///< non-owning; the World's engine outlives its comms.
  std::shared_ptr<const topo::Machine> machine_;
  std::vector<std::int64_t> cores_;  ///< rank -> core.
};

/// One process per core of a machine. Every communicator split off the
/// World inherits its engine, so a whole World's simulations stay inside
/// one scoped context.
class World {
 public:
  /// A World whose collectives resolve plans through `engine`, which must
  /// outlive the World and every Communicator split from it.
  World(Engine& engine, topo::Machine machine);

  std::int32_t size() const;
  const topo::Machine& machine() const noexcept { return *machine_; }

  /// MPI_COMM_WORLD with the initial (hardware-order) ranks.
  Communicator comm_world() const;

  /// The paper's first use case: a new full communicator whose rank r is
  /// the core carrying reordered rank r (MPI_Comm_split with the reordered
  /// rank as key).
  Communicator reordered(const Order& order) const;

  /// The engine this World's simulations run through.
  Engine& engine() const noexcept { return *engine_; }

 private:
  Engine* engine_;  ///< non-owning.
  std::shared_ptr<const topo::Machine> machine_;
};

}  // namespace mr::simmpi
