// Figure 8: Splatt CPD duration on 32 Hydra nodes (1024 processes) for all
// 24 rank-reordering orders, with one and with two NICs per node.
//
// Expected shape (paper): the Slurm default [1,3,2,0] (block:cyclic) is
// among the slow mappings; the best order improves on it by ~30% with one
// NIC; with two NICs everything speeds up and the gap narrows (~19%). CPD
// duration correlates strongly (Pearson >= 0.9) with the time spent in the
// 16-process layer alltoallvs.
#include <iomanip>
#include <iostream>

#include "examples/cli_common.hpp"
#include "mixradix/apps/splatt.hpp"
#include "mixradix/mr/metrics.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/util/strings.hpp"

int main(int argc, char** argv) {
  int iterations = 50;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--iters=", 0) != 0) {
        throw cli::InputError("unknown flag " + arg + " (known: --iters=N)");
      }
      iterations = cli::number<int>("--iters", arg.substr(8));
      cli::require(iterations >= 1, "--iters", "be >= 1", arg.substr(8));
    }
  } catch (const cli::InputError& e) {
    std::cerr << "fig8_splatt: " << e.what() << "\n";
    return 2;
  }

  const auto spec = mr::apps::splatt::nell1_like();
  mr::apps::splatt::CpdConfig config;
  config.iterations = iterations;
  // One simulated iteration extrapolates cleanly: the simulator is
  // deterministic and every iteration is statistically identical.
  config.sim_iterations = 1;

  const mr::Order slurm_default = mr::parse_order("1-3-2-0");

  for (int nics : {1, 2}) {
    const auto machine = mr::topo::hydra(32, nics);
    std::cout << "== Fig. 8" << (nics == 1 ? "a" : "b")
              << " — Splatt CPD, 32 Hydra nodes, 1024 procs, " << nics
              << " NIC(s) ==\n";
    std::vector<double> totals, alltoallvs;
    double best = 1e300, worst = 0, slurm = 0;
    std::string best_order, worst_order;
    for (const mr::Order& order : mr::all_orders_lexicographic(4)) {
      const auto result =
          mr::apps::splatt::simulate_cpd(machine, spec, order, config);
      totals.push_back(result.seconds);
      alltoallvs.push_back(result.alltoallv_seconds);
      std::cout << "  " << std::left << std::setw(10)
                << mr::order_to_string(order) << std::right << std::setw(8)
                << mr::util::format_fixed(result.seconds, 2) << " s   (16-proc "
                << "alltoallv: "
                << mr::util::format_fixed(result.alltoallv_seconds, 2) << " s)";
      if (order == slurm_default) {
        std::cout << "  [Slurm default mapping]";
        slurm = result.seconds;
      }
      std::cout << "\n";
      if (result.seconds < best) {
        best = result.seconds;
        best_order = mr::order_to_string(order);
      }
      if (result.seconds > worst) {
        worst = result.seconds;
        worst_order = mr::order_to_string(order);
      }
    }
    std::cout << "best " << best_order << " = "
              << mr::util::format_fixed(best, 2) << " s, worst " << worst_order
              << " = " << mr::util::format_fixed(worst, 2)
              << " s, Slurm default = " << mr::util::format_fixed(slurm, 2)
              << " s\n";
    std::cout << "improvement of best over Slurm default: "
              << mr::util::format_fixed(100.0 * (slurm - best) / slurm, 0)
              << " %\n";
    std::cout << "Pearson r(CPD duration, 16-proc alltoallv duration) = "
              << mr::util::format_fixed(
                     mr::apps::splatt::pearson(totals, alltoallvs), 2)
              << "\n\n";
  }
  return 0;
}
