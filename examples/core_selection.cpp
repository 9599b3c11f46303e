// Core selection for under-subscribed nodes (§3.4 + Fig. 9, condensed).
//
//   $ ./core_selection [nprocs] [class]
//
// Enumerates every distinct way Algorithm 3 can place `nprocs` CG
// processes on one LUMI node, prints the Slurm --cpu-bind=map_cpu option
// for each, and simulates the CG proxy to rank them — demonstrating that
// the selected core *set* dominates performance and that one core per L3
// wins for this memory-bound benchmark. A malformed or out-of-range
// argument exits with status 2 and a message naming it.
#include <algorithm>
#include <iostream>
#include <string>

#include "cli_common.hpp"
#include "mixradix/apps/cg.hpp"
#include "mixradix/mr/core_select.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/util/strings.hpp"

int main(int argc, char** argv) {
  using namespace mr;

  const auto machine = topo::lumi_node();
  std::int64_t nprocs = 8;
  char klass_name = 'B';
  try {
    const cli::Args args(argc, argv, {"nprocs", "class"});
    nprocs = args.number<std::int64_t>(0, 8);
    // The CG proxy runs on a power-of-two process count.
    if (nprocs < 1 || nprocs > machine.cores() ||
        (nprocs & (nprocs - 1)) != 0) {
      throw cli::InputError("nprocs must be a power of two in 1.." +
                            std::to_string(machine.cores()) + ", got " +
                            std::to_string(nprocs));
    }
    const std::string klass = args.get(1, "B");
    if (klass != "S" && klass != "A" && klass != "B" && klass != "C") {
      throw cli::InputError("class must be S, A, B or C, got '" + klass + "'");
    }
    klass_name = klass[0];
  } catch (const cli::InputError& e) {
    std::cerr << "core_selection: " << e.what() << "\n";
    return 2;
  }

  const auto klass = apps::cg::cg_class(klass_name);
  std::cout << machine.describe() << "\nCG class " << klass.name << ", "
            << nprocs << " processes; serial estimate "
            << util::format_fixed(apps::cg::serial_seconds(machine, klass), 1)
            << " s\n\n";

  struct Row {
    SelectionOutcome outcome;
    double seconds;
  };
  std::vector<Row> rows;
  for (auto& outcome : enumerate_selections(machine.hierarchy(), nprocs)) {
    const double seconds =
        apps::cg::simulate_cg(machine, klass, outcome.core_list).seconds;
    rows.push_back({std::move(outcome), seconds});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.seconds < b.seconds; });

  for (const Row& row : rows) {
    std::cout << "  " << order_to_string(row.outcome.order) << "  "
              << util::format_fixed(row.seconds, 2) << " s   cores "
              << core_set_ranges(row.outcome.core_set) << "\n"
              << "      srun --cpu-bind="
              << map_cpu_string(row.outcome.core_list) << "\n";
    const auto sub = selected_hierarchy(machine.hierarchy(), row.outcome.core_set);
    if (sub) {
      std::cout << "      selected sub-hierarchy: " << sub->to_string()
                << " (usable for a second reordering step)\n";
    }
  }
  return 0;
}
