#include "mixradix/simnet/path.hpp"

#include "mixradix/mr/metrics.hpp"
#include "mixradix/util/expect.hpp"

namespace mr::simnet {

std::vector<double> channel_capacities(const topo::Machine& machine) {
  std::vector<double> caps(static_cast<std::size_t>(3 * machine.total_components()));
  for (int level = 0; level < machine.depth(); ++level) {
    const auto& spec = machine.level(level);
    const std::int64_t count = machine.hierarchy().components_at(level);
    const std::int64_t first = machine.component_id(level, 0);
    for (std::int64_t comp = 0; comp < count; ++comp) {
      const std::int64_t id = first + comp;
      caps[static_cast<std::size_t>(3 * id)] = spec.link_bandwidth;
      caps[static_cast<std::size_t>(3 * id + 1)] = spec.link_bandwidth;
      // Levels without a memory model get a placeholder capacity; those
      // channels are never referenced by flow_channels().
      caps[static_cast<std::size_t>(3 * id + 2)] =
          spec.mem_bandwidth > 0 ? spec.mem_bandwidth : 1.0;
    }
  }
  return caps;
}

ChannelId egress_channel(const topo::Machine& machine, int level,
                         std::int64_t component_in_level) {
  return static_cast<ChannelId>(3 * machine.component_id(level, component_in_level));
}

ChannelId ingress_channel(const topo::Machine& machine, int level,
                          std::int64_t component_in_level) {
  return static_cast<ChannelId>(3 * machine.component_id(level, component_in_level) + 1);
}

ChannelId memory_channel(const topo::Machine& machine, int level,
                         std::int64_t component_in_level) {
  MR_EXPECT(machine.level(level).mem_bandwidth > 0,
            "level has no memory bandwidth model");
  return static_cast<ChannelId>(3 * machine.component_id(level, component_in_level) + 2);
}

std::vector<ChannelId> flow_channels(const topo::Machine& machine,
                                     std::int64_t core_a, std::int64_t core_b) {
  MR_EXPECT(core_a >= 0 && core_a < machine.cores(), "core_a out of range");
  MR_EXPECT(core_b >= 0 && core_b < machine.cores(), "core_b out of range");
  if (core_a == core_b) return {};
  const auto& h = machine.hierarchy();
  const Coords a = decompose(h, core_a);
  const Coords b = decompose(h, core_b);
  const int fd = innermost_common_level(h, a, b);
  std::vector<ChannelId> channels;
  channels.reserve(static_cast<std::size_t>(4 * (machine.depth() - fd)));
  for (int level = fd; level < machine.depth(); ++level) {
    channels.push_back(egress_channel(machine, level, machine.component_of(core_a, level)));
    channels.push_back(ingress_channel(machine, level, machine.component_of(core_b, level)));
  }
  // Memory traffic: the transfer reads from the sender's memory domains and
  // writes to the receiver's, at every level that models a controller.
  // (FlowSim deduplicates, so a flow staying inside one domain consumes its
  // controller once, not twice.)
  for (int level = 0; level < machine.depth(); ++level) {
    if (machine.level(level).mem_bandwidth <= 0) continue;
    channels.push_back(memory_channel(machine, level, machine.component_of(core_a, level)));
    channels.push_back(memory_channel(machine, level, machine.component_of(core_b, level)));
  }
  return channels;
}

}  // namespace mr::simnet
