// Order-space exploration: metrics and equivalence classes without any
// simulation (§3.3's "do not evaluate all h! permutations" message).
//
//   $ ./explore_orders [hierarchy] [comm_size] [fast|reference]
//   $ ./explore_orders 16:2:2:8 16
//
// Prints, for a hierarchy given on the command line, the equivalence
// classes of orders at each granularity and the metric tuple of each class
// representative — the screening step before any expensive benchmarking.
// The optional third argument selects the classifier: the O(h) digit keys
// with the closed-form kernels (default) or the map of materialised
// placements with the brute-force kernels; the output is identical. A
// malformed or out-of-range argument exits with status 2 and a message
// naming it.
#include <iostream>
#include <optional>
#include <string>

#include "cli_common.hpp"
#include "mixradix/engine/engine.hpp"
#include "mixradix/mr/equivalence.hpp"
#include "mixradix/util/strings.hpp"

int main(int argc, char** argv) {
  using namespace mr;

  std::optional<Hierarchy> parsed;
  std::int64_t comm_size = 16;
  MetricsImpl impl = MetricsImpl::Fast;
  try {
    const cli::Args args(argc, argv, {"hierarchy", "comm_size", "kernels"});
    const std::string spec = args.get(0, "16:2:2:8");
    try {
      parsed.emplace(Hierarchy::parse(spec));
    } catch (const mr::invalid_argument&) {
      throw cli::InputError("malformed hierarchy '" + spec + "'");
    }
    // The classifier materialises all h! orders, which it caps at 12!.
    if (parsed->depth() > 12) {
      throw cli::InputError("hierarchy '" + spec + "' has " +
                            std::to_string(parsed->depth()) +
                            " levels; at most 12 can be enumerated");
    }
    comm_size = args.number<std::int64_t>(1, 16);
    if (comm_size < 1 || parsed->total() % comm_size != 0) {
      throw cli::InputError("comm_size must divide the hierarchy's " +
                            std::to_string(parsed->total()) +
                            " processes, got " + std::to_string(comm_size));
    }
    const std::string kernels = args.get(2, "fast");
    if (kernels != "fast" && kernels != "reference") {
      throw cli::InputError("kernels must be 'fast' or 'reference', got '" +
                            kernels + "'");
    }
    if (kernels == "reference") impl = MetricsImpl::Reference;
  } catch (const cli::InputError& e) {
    std::cerr << "explore_orders: " << e.what() << "\n";
    return 2;
  }
  const Hierarchy& h = *parsed;

  std::cout << "hierarchy " << h.to_string() << ", " << h.total()
            << " processes, subcommunicators of " << comm_size << "\n";
  std::cout << factorial(h.depth()) << " orders total ("
            << (impl == MetricsImpl::Fast ? "digit-key fast" : "map-based reference")
            << " classifier)\n\n";

  Engine engine;
  const auto classify = [&](Equivalence granularity) {
    return classify_orders(engine, h, comm_size, granularity, 0, impl);
  };
  const auto exact = classify(Equivalence::ExactPlacement);
  const auto internal = classify(Equivalence::SameSetsAndInternal);
  const auto sets = classify(Equivalence::SameSetsOnly);

  std::cout << "distinct placements:                     " << exact.size() << "\n";
  std::cout << "distinct (comm sets + internal order):   " << internal.size()
            << "  <- benchmark these\n";
  std::cout << "distinct communicator core-sets:         " << sets.size()
            << "  <- what pair-percentages can see\n\n";

  std::cout << "core-set classes (representative metrics, members):\n";
  for (const auto& cls : sets) {
    std::cout << "  " << cls.representative.to_string() << "\n    members:";
    for (const auto& member : cls.members) {
      std::cout << " " << order_to_string(member);
    }
    std::cout << "\n";
  }
  std::cout << "\nwithin one core-set class, members differing in ring cost "
               "can still\nperform differently for rank-order-sensitive "
               "collectives (allgather,\nallreduce) — §3.3 of the paper.\n";
  return 0;
}
