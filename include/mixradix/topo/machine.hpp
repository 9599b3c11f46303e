// Machine: a performance-annotated hierarchical machine model.
//
// The mixed-radix algorithms only need the radix vector; the simulator
// additionally needs, per hierarchy level, the capacity and latency of the
// link that a message crosses at that level, and (for the roofline compute
// model) the memory bandwidth shared by the cores of one component.
//
// Orientation follows Hierarchy: level 0 is the outermost (node) level,
// depth-1 the innermost (core). The "uplink" of a component at level k is
// the channel connecting it to its enclosing level-(k-1) component; a
// message between two cores whose coordinates first differ at level fd
// climbs through the uplinks of every component at levels [fd, depth-1] on
// both sides (hop_cost == depth - fd uplinks per side).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mixradix/mr/hierarchy.hpp"

namespace mr::topo {

/// Per-level link and memory parameters.
struct LevelSpec {
  std::string name;          ///< "node", "socket", "numa", "l3", "core", ...
  int radix = 0;             ///< sub-components per component of the parent.
  double link_latency = 0;   ///< seconds added per traversal of this uplink.
  double link_bandwidth = 0; ///< bytes/s capacity of one component's uplink.
  /// Memory bandwidth (bytes/s) delivered by one component at this level to
  /// the cores beneath it; 0 = this level imposes no memory ceiling.
  double mem_bandwidth = 0;
};

/// LogGP-style per-message CPU costs and protocol switches.
struct MessagingCosts {
  double send_overhead = 2.5e-7;   ///< sender CPU seconds per message.
  double recv_overhead = 2.5e-7;   ///< receiver CPU seconds per message.
  double base_latency = 3.0e-7;    ///< fixed wire-up cost per message.
  std::int64_t eager_threshold = 16 * 1024;  ///< bytes; above = rendezvous.
  double reduce_seconds_per_byte = 2.5e-11;  ///< local reduction cost (~40 GB/s).
};

/// A homogeneous hierarchical machine.
class Machine {
 public:
  Machine(std::string name, std::vector<LevelSpec> levels,
          MessagingCosts costs = {}, double core_flops = 2.0e9 * 8);

  const std::string& name() const noexcept { return name_; }
  const Hierarchy& hierarchy() const noexcept { return hierarchy_; }
  int depth() const noexcept { return hierarchy_.depth(); }
  std::int64_t cores() const noexcept { return hierarchy_.total(); }
  const std::vector<LevelSpec>& levels() const noexcept { return levels_; }
  const LevelSpec& level(int k) const;
  const MessagingCosts& costs() const noexcept { return costs_; }

  /// Peak floating-point rate of one core (FLOP/s), for compute models.
  double core_flops() const noexcept { return core_flops_; }

  /// Component (0-based, machine-wide) hosting `core` at level k.
  std::int64_t component_of(std::int64_t core, int level) const;

  /// Total number of components summed over all levels (channel sizing).
  std::int64_t total_components() const noexcept { return total_components_; }

  /// Machine-wide dense id of (level, component): level offsets are
  /// cumulative component counts of the outer levels.
  std::int64_t component_id(int level, std::int64_t component_in_level) const;

  /// One-way latency of a message between two cores: base latency plus the
  /// per-level hop latencies of every uplink crossed (both sides).
  double path_latency(std::int64_t core_a, std::int64_t core_b) const;

  /// Variants of this machine (builders, cheap to copy).
  Machine with_nodes(int nodes) const;           ///< change the level-0 radix.
  Machine with_nic_scale(double factor) const;   ///< scale node uplink bw (2 NICs => 2.0).
  Machine with_costs(MessagingCosts costs) const;

  /// Human-readable multi-line description (examples / debugging).
  std::string describe() const;

 private:
  std::string name_;
  std::vector<LevelSpec> levels_;
  Hierarchy hierarchy_;
  MessagingCosts costs_;
  double core_flops_;
  std::vector<std::int64_t> level_offset_;  ///< prefix sums of components_at.
  std::int64_t total_components_ = 0;
};

/// The parameters that determine a machine's channel capacities, routes and
/// cost model, rendered to a canonical string at full double precision. Two
/// Machine instances with equal fingerprints are interchangeable for every
/// derived structure (interned routes, channel capacities, static bounds) —
/// pointer identity is NOT a safe test, since a new machine can reuse a
/// dead one's address. Used by SimWorkspace rebinding.
std::string machine_fingerprint(const Machine& machine);

}  // namespace mr::topo
