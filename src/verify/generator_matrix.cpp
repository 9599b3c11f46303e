#include "mixradix/verify/generator_matrix.hpp"

#include "mixradix/simmpi/collectives.hpp"
#include "mixradix/simmpi/registry.hpp"
#include "mixradix/util/expect.hpp"

namespace mr::verify {

using simmpi::Schedule;

namespace {

// The per-algorithm generators, support predicates, and the canonical
// alltoallv counts fixture all live in the simmpi algorithm registry
// (mixradix/simmpi/registry.hpp). This file only adds the composition
// shapes — the schedule forms the sweeps actually replay (steady-state
// repetition, back-to-back collectives, simultaneous subcommunicators).

/// Two part-p communicators interleaved over 2p global ranks: part 0 on the
/// even ranks, part 1 on the odd ones.
Schedule interleaved_merge(const Schedule& part) {
  std::vector<std::int32_t> evens, odds;
  for (std::int32_t r = 0; r < part.nranks; ++r) {
    evens.push_back(2 * r);
    odds.push_back(2 * r + 1);
  }
  return simmpi::merge({part, part}, {evens, odds}, 2 * part.nranks);
}

struct Composition {
  const char* name;
  Schedule (*make)(std::int32_t p, std::int64_t count);
};

const Composition kCompositions[] = {
    {"repeat",
     [](std::int32_t p, std::int64_t c) {
       return simmpi::repeat(simmpi::allreduce_ring(p, c), 3);
     }},
    {"concat",
     [](std::int32_t p, std::int64_t c) {
       return simmpi::concat({simmpi::allreduce_recursive_doubling(p, c),
                              simmpi::allgather_ring(p, c),
                              simmpi::barrier_dissemination(p)});
     }},
    {"merge",
     [](std::int32_t p, std::int64_t c) {
       return interleaved_merge(simmpi::allreduce_ring(p, c));
     }},
    {"concat_merge",
     [](std::int32_t p, std::int64_t c) {
       // Two interleaved subcommunicator allreduces, then a full-width
       // alltoall over all 2p ranks: a whole sweep iteration as one IR.
       return simmpi::concat({interleaved_merge(simmpi::allreduce_ring(p, c)),
                              simmpi::alltoall_pairwise(2 * p, c)});
     }},
};

const Composition* find_composition(const std::string& name) {
  for (const Composition& c : kCompositions) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

}  // namespace

std::vector<std::string> algorithm_names() {
  std::vector<std::string> names;
  for (const auto& e : simmpi::algorithm_registry()) names.emplace_back(e.name);
  for (const Composition& c : kCompositions) names.emplace_back(c.name);
  return names;
}

bool supports(const std::string& name, std::int32_t p) {
  if (p < 1) return false;
  if (const auto* e = simmpi::find_algorithm(name)) return e->supported(p);
  return find_composition(name) != nullptr;
}

Schedule make_named(const std::string& name, std::int32_t p,
                    std::int64_t count, std::int32_t root) {
  if (const Composition* c = find_composition(name)) {
    MR_EXPECT(p >= 1, name + " does not support p = " + std::to_string(p));
    MR_EXPECT(count >= 1, "count must be >= 1");
    MR_EXPECT(root >= 0 && root < p, "root out of range");
    return c->make(p, count);
  }
  return simmpi::make_algorithm(name, p, count, root);
}

std::vector<MatrixPoint> generator_matrix(
    const std::vector<std::int32_t>& ranks,
    const std::vector<std::int64_t>& counts) {
  std::vector<MatrixPoint> points;
  const auto add = [&points](const char* name, bool rooted, std::int32_t p,
                             std::int64_t c) {
    // Root 0, plus root p - 1 for a rooted collective with p > 1.
    for (int r = 0; r < (rooted && p > 1 ? 2 : 1); ++r) {
      const std::int32_t root = r == 0 ? 0 : p - 1;
      MatrixPoint point;
      point.algorithm = name;
      point.nranks = p;
      point.count = c;
      point.name = std::string(name) + "/p=" + std::to_string(p) +
                   "/c=" + std::to_string(c);
      if (rooted && p > 1) point.name += "/root=" + std::to_string(root);
      point.make = [name = std::string(name), p, c, root] {
        return make_named(name, p, c, root);
      };
      points.push_back(std::move(point));
    }
  };
  for (const auto& e : simmpi::algorithm_registry()) {
    for (const std::int32_t p : ranks) {
      if (p < 1 || !e.supported(p)) continue;
      for (const std::int64_t c : counts) add(e.name, e.rooted, p, c);
    }
  }
  for (const Composition& comp : kCompositions) {
    for (const std::int32_t p : ranks) {
      if (p < 1) continue;
      for (const std::int64_t c : counts) add(comp.name, false, p, c);
    }
  }
  return points;
}

}  // namespace mr::verify
