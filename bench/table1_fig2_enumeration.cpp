// Table 1 + Figures 1 and 2: the worked enumeration examples of §3.1–3.2.
//
// Prints, for the ⟦2,2,4⟧ machine: Table 1's rows (rank 10 under every
// order), Fig. 1's initial layout, and Fig. 2's six reordered layouts with
// their subcommunicator coloring, metrics, and Slurm --distribution
// equivalents ("not possible" where Slurm cannot express the order).
#include <iomanip>
#include <iostream>
#include <string>

#include "mixradix/mr/decompose.hpp"
#include "mixradix/mr/equivalence.hpp"
#include "mixradix/mr/metrics.hpp"
#include "mixradix/slurm/distribution.hpp"
#include "mixradix/util/strings.hpp"

namespace {

using namespace mr;

void print_layout(const Hierarchy& h, const std::vector<std::int64_t>& new_rank,
                  std::int64_t comm_size) {
  // Physical grid: nodes side by side, one row per socket.
  const int nodes = h[0], sockets = h[1], cores = h[2];
  for (int s = 0; s < sockets; ++s) {
    for (int n = 0; n < nodes; ++n) {
      std::cout << "  node" << n << ".socket" << s << ": ";
      for (int c = 0; c < cores; ++c) {
        const std::int64_t core = (n * sockets + s) * cores + c;
        const std::int64_t r = new_rank[static_cast<std::size_t>(core)];
        std::cout << std::setw(3) << r << "(c" << r / comm_size << ")";
      }
      std::cout << "   ";
    }
    std::cout << "\n";
  }
}

}  // namespace

int main() {
  const Hierarchy h{2, 2, 4};

  std::cout << "== Table 1 — orders applied to rank 10 on " << h.to_string()
            << " ==\n";
  std::cout << std::left << std::setw(12) << "order" << std::setw(22)
            << "permuted coordinates" << std::setw(20) << "permuted hierarchy"
            << "new rank\n";
  const Coords coords = decompose(h, 10);
  for (const Order& order : all_orders_lexicographic(h.depth())) {
    std::vector<int> permuted_coords;
    for (int level : order) {
      permuted_coords.push_back(coords[static_cast<std::size_t>(level)]);
    }
    // Appended piecewise: GCC 12's -Wrestrict misfires on
    // `"[" + std::string + "]"` in Release builds.
    std::string bracketed = "[";
    bracketed += util::join_ints(permuted_coords, ", ");
    bracketed += ']';
    std::cout << std::left << std::setw(12) << order_to_string(order)
              << std::setw(22) << bracketed
              << std::setw(20) << h.permuted(order).to_string()
              << reorder_rank(h, 10, order) << "\n";
  }

  std::cout << "\n== Fig. 1 — initial ranks on " << h.to_string() << " ==\n";
  print_layout(h, reorder_all_ranks(h, {2, 1, 0}), 4);

  std::cout << "\n== Fig. 2 — all orders, subcommunicators of 4 (cN = comm id) ==\n";
  // Characterize all h! orders in one batch chunked across the shared
  // thread pool (output below stays in lexicographic order regardless).
  const auto orders = all_orders_lexicographic(h.depth());
  const auto characters = characterize_orders(h, orders, 4);
  for (std::size_t i = 0; i < orders.size(); ++i) {
    const auto dist = slurm::equivalent_distribution(h, orders[i]);
    std::cout << "order " << characters[i].to_string() << "  --distribution="
              << (dist ? dist->to_string() : "(not possible)") << "\n";
    print_layout(h, reorder_all_ranks(h, orders[i]), 4);
  }

  std::cout << "\n== §3.3 — order equivalence classes (SameSetsOnly) ==\n";
  for (const auto& cls : classify_orders(h, 4, Equivalence::SameSetsOnly)) {
    std::cout << "  class of " << cls.representative.to_string() << ": "
              << cls.members.size() << " order(s)\n";
  }
  return 0;
}
