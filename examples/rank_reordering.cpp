// Rank reordering for subcommunicator collectives (§3.2 + §4.1, condensed).
//
//   $ ./rank_reordering [comm_size] [total_kb]
//
// Simulates an application that splits a reordered MPI_COMM_WORLD into
// equal subcommunicators and runs MPI_Alltoall in all of them
// simultaneously, on an 8-node Hydra-like cluster — then ranks all
// performance-distinct orders. This is the experiment you would run to
// choose a mapping for a real subcommunicator-heavy code. A malformed or
// out-of-range argument exits with status 2 and a message naming it.
#include <algorithm>
#include <iostream>
#include <vector>

#include "cli_common.hpp"
#include "mixradix/engine/engine.hpp"
#include "mixradix/mr/equivalence.hpp"
#include "mixradix/simmpi/world.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/util/strings.hpp"

int main(int argc, char** argv) {
  using namespace mr;

  const auto machine = topo::hydra(8);
  std::int64_t comm_size = 16;
  std::int64_t total_bytes = 1024 * 1024;
  try {
    const cli::Args args(argc, argv, {"comm_size", "total_kb"});
    comm_size = args.number<std::int64_t>(0, 16);
    if (comm_size < 1 || machine.cores() % comm_size != 0) {
      throw cli::InputError("comm_size must divide the machine's " +
                            std::to_string(machine.cores()) + " cores, got " +
                            std::to_string(comm_size));
    }
    const auto total_kb = args.number<std::int64_t>(1, 1024);
    if (total_kb < 1 || total_kb > (std::int64_t{1} << 40)) {
      throw cli::InputError("total_kb must be 1..2^40, got " +
                            std::to_string(total_kb));
    }
    total_bytes = total_kb * 1024;
  } catch (const cli::InputError& e) {
    std::cerr << "rank_reordering: " << e.what() << "\n";
    return 2;
  }

  Engine engine;
  const simmpi::World world(engine, machine);
  std::cout << machine.describe() << "\n";

  // Deduplicate the 4! = 24 orders: orders mapping communicators to the
  // same core sets with the same internal rank order are indistinguishable.
  const auto orders = distinct_orders(engine, machine.hierarchy(), comm_size,
                                      Equivalence::SameSetsAndInternal);
  std::cout << orders.size() << " performance-distinct orders (of "
            << factorial(machine.hierarchy().depth()) << ")\n\n";

  const std::int64_t count =
      std::max<std::int64_t>(1, total_bytes / (8 * comm_size));
  struct Row {
    Order order;
    double alone;
    double together;
  };
  std::vector<Row> rows;
  for (const Order& order : orders) {
    const auto comms = world.reordered(order).split_blocks(comm_size);
    const double alone =
        comms.front().time_collective(simmpi::Collective::Alltoall, count);
    const double together = simmpi::Communicator::time_concurrent(
        comms, simmpi::Collective::Alltoall, count);
    rows.push_back({order, alone, together});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.together < b.together; });

  std::cout << "MPI_Alltoall, " << comm_size << " procs/comm, "
            << util::format_bytes(static_cast<std::uint64_t>(total_bytes))
            << " per collective — sorted by all-comms time:\n";
  std::cout << "order        1 comm [us]   all comms [us]   legend\n";
  for (const Row& row : rows) {
    const auto ch = characterize_order(machine.hierarchy(), row.order, comm_size);
    std::cout << "  " << order_to_string(row.order) << "      "
              << util::format_fixed(row.alone * 1e6, 1) << "          "
              << util::format_fixed(row.together * 1e6, 1) << "        "
              << ch.to_string() << "\n";
  }
  std::cout << "\npacked orders (high % at low levels) stay flat under "
               "concurrency;\nspread orders win alone and collapse together "
               "— the paper's Fig. 3 in one program.\n";
  return 0;
}
