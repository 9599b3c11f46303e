// mrenum: a command-line front end to the enumeration algorithms — what a
// cluster user would actually invoke from a job script.
//
//   $ ./mrenum rank --hierarchy 2:2:4 --order 0-2-1 --rank 10
//   $ ./mrenum rankfile --hierarchy 16:2:2:8 --order 1-3-2-0
//   $ ./mrenum map_cpu --hierarchy 2:4:2:8 --order 2-1-0-3 --nprocs 16
//   $ ./mrenum orders --hierarchy 2:2:4 --comm-size 4
//
// Unknown flags and malformed values exit with status 2 and a message
// naming the offending input.
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cli_common.hpp"
#include "mixradix/mr/core_select.hpp"
#include "mixradix/mr/equivalence.hpp"
#include "mixradix/mr/reorder.hpp"
#include "mixradix/slurm/distribution.hpp"
#include "mixradix/util/strings.hpp"

namespace {

int usage() {
  std::cerr <<
      "usage: mrenum <command> [--hierarchy H] [--order O] [--rank R]\n"
      "              [--nprocs N] [--comm-size S] [--metrics fast|reference]\n"
      "commands:\n"
      "  rank      new rank of --rank under --order\n"
      "  rankfile  Open MPI rankfile realising --order on --hierarchy\n"
      "  map_cpu   Slurm --cpu-bind list selecting --nprocs cores per node\n"
      "  orders    all orders with metrics and Slurm equivalents\n"
      "flags:\n"
      "  --metrics fast|reference   metric kernels for `orders`: closed-form\n"
      "                             (default) or the brute-force reference;\n"
      "                             the output is identical either way\n"
      "  --shard i/n                `orders` emits only lexicographic ranks\n"
      "                             i, i+n, i+2n, ... (factorial-number-\n"
      "                             system unranking, no enumeration of the\n"
      "                             other shards); the n shards partition\n"
      "                             the h! orders exactly. Default 0/1.\n";
  return 2;
}

/// Parse "i/n" (e.g. "1/4") into {index, count}; throws on malformed specs.
std::pair<long long, long long> parse_shard(const std::string& value) {
  const std::vector<std::string> parts = mr::util::split(value, '/');
  if (parts.size() != 2) {
    throw cli::InputError("--shard must be i/n, got '" + value + "'");
  }
  const auto index = cli::number<long long>("--shard", parts[0]);
  const auto count = cli::number<long long>("--shard", parts[1]);
  if (index < 0 || count < 1 || index >= count) {
    throw cli::InputError("--shard must be i/n with 0 <= i < n, got '" +
                          value + "'");
  }
  return {index, count};
}

mr::MetricsImpl parse_metrics_impl(const std::string& value) {
  if (value == "fast") return mr::MetricsImpl::Fast;
  if (value == "reference") return mr::MetricsImpl::Reference;
  throw cli::InputError("--metrics must be 'fast' or 'reference', got '" +
                        value + "'");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mr;
  using cli::number;
  static const std::map<std::string, std::set<std::string>> kFlags = {
      {"rank", {"hierarchy", "order", "rank"}},
      {"rankfile", {"hierarchy", "order"}},
      {"map_cpu", {"hierarchy", "order", "nprocs"}},
      {"orders", {"hierarchy", "comm-size", "metrics", "shard"}},
  };
  if (argc < 2) return usage();
  const std::string command = argv[1];

  try {
    const auto known = kFlags.find(command);
    if (known == kFlags.end()) {
      throw cli::InputError("unknown command " + command);
    }
    const cli::Flags flags(argc, argv, 2, known->second);
    const Hierarchy h = Hierarchy::parse(flags.get("hierarchy", "2:2:4"));
    if (command == "rank") {
      const Order order = parse_order(flags.get("order", "0-1-2"));
      const auto rank = number<std::int64_t>("--rank", flags.get("rank", "0"));
      cli::require(rank >= 0 && rank < h.total(), "--rank",
                   "lie in 0.." + std::to_string(h.total() - 1),
                   std::to_string(rank));
      std::cout << reorder_rank(h, rank, order) << "\n";
    } else if (command == "rankfile") {
      const Order order = parse_order(flags.get("order", "0-1-2"));
      std::cout << ReorderPlan(h, order).rankfile();
    } else if (command == "map_cpu") {
      const Order order = parse_order(flags.get("order", "0-1-2"));
      const auto n = number<std::int64_t>("--nprocs", flags.get("nprocs", "1"));
      std::cout << "--cpu-bind=" << map_cpu_string(select_cores(h, order, n))
                << "\n";
    } else {  // orders
      const auto comm_size = number<std::int64_t>(
          "--comm-size", flags.get("comm-size", std::to_string(h.total())));
      const MetricsImpl impl = parse_metrics_impl(flags.get("metrics", "fast"));
      const auto [shard, nshards] = parse_shard(flags.get("shard", "0/1"));
      // Unrank each of this shard's lexicographic positions directly — a
      // shard never materialises (or even iterates) the other n-1 shards,
      // so n workers splitting an h! enumeration each do 1/n of the work.
      for (long long idx = shard; idx < factorial(h.depth()); idx += nshards) {
        const Order order = nth_order_lexicographic(h.depth(), idx);
        const auto ch = characterize_order(h, order, comm_size, impl);
        const auto dist = slurm::equivalent_distribution(h, order);
        std::cout << ch.to_string() << "  distribution="
                  << (dist ? dist->to_string() : "-") << "\n";
      }
    }
  } catch (const cli::InputError& e) {
    std::cerr << "mrenum_cli: " << e.what() << "\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
