#include "mixradix/simmpi/world.hpp"

#include <algorithm>
#include <map>

#include "mixradix/engine/engine.hpp"
#include "mixradix/mr/decompose.hpp"
#include "mixradix/simmpi/plan_cache.hpp"
#include "mixradix/util/expect.hpp"

namespace mr::simmpi {

Communicator::Communicator(Engine* engine,
                           std::shared_ptr<const topo::Machine> machine,
                           std::vector<std::int64_t> cores)
    : engine_(engine), machine_(std::move(machine)), cores_(std::move(cores)) {
  MR_EXPECT(!cores_.empty(), "communicator must not be empty");
  for (std::int64_t core : cores_) {
    MR_EXPECT(core >= 0 && core < machine_->cores(), "core out of range");
  }
}

std::int64_t Communicator::core_of(std::int32_t rank) const {
  MR_EXPECT(rank >= 0 && rank < size(), "rank out of range");
  return cores_[static_cast<std::size_t>(rank)];
}

std::vector<Communicator> Communicator::split(
    const std::vector<std::int64_t>& colors,
    const std::vector<std::int64_t>& keys) const {
  MR_EXPECT(static_cast<std::int32_t>(colors.size()) == size(),
            "one color per rank required");
  MR_EXPECT(static_cast<std::int32_t>(keys.size()) == size(),
            "one key per rank required");
  // (color) -> [(key, old rank)] with MPI's (key, rank) tie-breaking.
  std::map<std::int64_t, std::vector<std::pair<std::int64_t, std::int32_t>>> groups;
  for (std::int32_t rank = 0; rank < size(); ++rank) {
    groups[colors[static_cast<std::size_t>(rank)]].emplace_back(
        keys[static_cast<std::size_t>(rank)], rank);
  }
  std::vector<Communicator> out;
  out.reserve(groups.size());
  for (auto& [color, members] : groups) {
    std::sort(members.begin(), members.end());
    std::vector<std::int64_t> cores;
    cores.reserve(members.size());
    for (const auto& [key, rank] : members) {
      cores.push_back(cores_[static_cast<std::size_t>(rank)]);
    }
    out.push_back(Communicator(engine_, machine_, std::move(cores)));
  }
  return out;
}

std::vector<Communicator> Communicator::split_blocks(std::int64_t comm_size) const {
  MR_EXPECT(comm_size >= 1 && size() % comm_size == 0,
            "comm size must divide the communicator");
  std::vector<std::int64_t> colors(static_cast<std::size_t>(size()));
  std::vector<std::int64_t> keys(static_cast<std::size_t>(size()));
  for (std::int32_t rank = 0; rank < size(); ++rank) {
    colors[static_cast<std::size_t>(rank)] = rank / comm_size;
    keys[static_cast<std::size_t>(rank)] = rank % comm_size;
  }
  return split(colors, keys);
}

std::vector<Communicator> Communicator::split_by_level(int level) const {
  MR_EXPECT(level >= 0 && level < machine_->depth(), "level out of range");
  std::vector<std::int64_t> colors(static_cast<std::size_t>(size()));
  std::vector<std::int64_t> keys(static_cast<std::size_t>(size()));
  for (std::int32_t rank = 0; rank < size(); ++rank) {
    colors[static_cast<std::size_t>(rank)] =
        machine_->component_of(cores_[static_cast<std::size_t>(rank)], level);
    keys[static_cast<std::size_t>(rank)] = rank;
  }
  return split(colors, keys);
}

double Communicator::time_collective(Collective kind, std::int64_t count,
                                     std::int32_t root) const {
  auto plan = engine_->plan_cache().get(
      PlanKey{selected_algorithm(kind, size(), count,
                                 machine_->costs().eager_threshold),
              size(), count, root, 1});
  return run_timed(*machine_, {PlanJob{std::move(plan), cores_, 0.0}})
      .makespan;
}

double Communicator::time_concurrent(const std::vector<Communicator>& comms,
                                     Collective kind, std::int64_t count) {
  MR_EXPECT(!comms.empty(), "need at least one communicator");
  const topo::Machine& machine = comms.front().machine();
  Engine& engine = comms.front().engine();
  std::vector<PlanJob> jobs;
  jobs.reserve(comms.size());
  for (const auto& comm : comms) {
    MR_EXPECT(&comm.machine() == &machine,
              "all communicators must live on the same machine");
    auto plan = engine.plan_cache().get(
        PlanKey{selected_algorithm(kind, comm.size(), count,
                                   machine.costs().eager_threshold),
                comm.size(), count, 0, 1});
    jobs.push_back(PlanJob{std::move(plan), comm.cores(), 0.0});
  }
  return run_timed(machine, jobs).makespan;
}

World::World(Engine& engine, topo::Machine machine)
    : engine_(&engine),
      machine_(std::make_shared<const topo::Machine>(std::move(machine))) {}

std::int32_t World::size() const {
  return static_cast<std::int32_t>(machine_->cores());
}

Communicator World::comm_world() const {
  std::vector<std::int64_t> cores(static_cast<std::size_t>(machine_->cores()));
  for (std::int64_t c = 0; c < machine_->cores(); ++c) {
    cores[static_cast<std::size_t>(c)] = c;
  }
  return Communicator(engine_, machine_, std::move(cores));
}

Communicator World::reordered(const Order& order) const {
  const auto placement = placement_of_new_ranks(machine_->hierarchy(), order);
  return Communicator(engine_, machine_, placement);
}

}  // namespace mr::simmpi
