// mrtune: the mapping autotuner from the command line — "which enumeration
// orders should my job script use on this machine for this workload?"
//
//   $ ./mrtune --machine lumi:2 --size 256 --collective alltoall --k 5
//   $ ./mrtune --machine hydra:4 --size 16 --collective allgather,allreduce
//              --bytes 1048576,8388608 --json 1
//   $ ./mrtune --machine testbox --size 4 --concurrency single --k 2
//   $ ./mrtune --machine lumi:2 --size 32 --budget-points 40 --k 3
//   $ ./mrtune --machine lumi:2 --size 32 --shard 0/4   # 1 of 4 workers
//
// Prints the top-k orders with their §3.3 metric tuples, simulated scores
// and funnel provenance; --json 1 emits the canonical machine-readable
// report instead (byte-identical across runs and thread counts when the
// budget is a point budget or absent). Unknown flags and malformed values
// exit with status 2 and a message naming the offending input.
#include <charconv>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "mixradix/engine/engine.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/tune/report.hpp"
#include "mixradix/tune/search.hpp"
#include "mixradix/util/strings.hpp"

namespace {

void usage() {
  std::cerr <<
      "usage: mrtune [flags]\n"
      "  --machine SPEC      testbox | hydra:N[:nics] | hydra_node |\n"
      "                      lumi:N | lumi_node | generic:n:s:c\n"
      "  --size S[,S...]     communicator sizes (default: machine cores)\n"
      "  --collective C[,C]  alltoall (default), allgather, allreduce,\n"
      "                      bcast, reduce, reduce_scatter, gather,\n"
      "                      scatter, scan, barrier\n"
      "  --bytes B[,B...]    total payload per point (default 8388608)\n"
      "  --concurrency MODE  all (default) | single subcommunicator\n"
      "  --k K               orders to return (default 3)\n"
      "  --reps N            repetitions per point (default 2)\n"
      "  --threads N         0 = default pool width, 1 = serial\n"
      "  --slack S           completion slack (default 0 = exact)\n"
      "  --budget-points N   stop after N point simulations (anytime)\n"
      "  --budget-seconds S  wall-clock cap (non-deterministic)\n"
      "  --shard i/n         search only candidate shard i of n\n"
      "  --plan-cache-cap N  bound this query's plan cache (LRU, 0 = off)\n"
      "  --json 1            canonical JSON report on stdout (cache and\n"
      "                      stage-2 stats go to stderr)\n";
}

/// Bad command-line input: reported with the usage text, exit status 2.
struct InputError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Strict number parse in the manner of util::parse_int: the whole text
/// must be one number of type T, or InputError names `where`.
template <typename T>
T number(const std::string& where, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) {
    throw InputError("malformed number '" + text + "' in " + where);
  }
  return value;
}

template <typename T>
std::vector<T> number_list(const std::string& where, const std::string& spec) {
  std::vector<T> out;
  for (const std::string& item : mr::util::split(spec, ',')) {
    out.push_back(number<T>(where, item));
  }
  return out;
}

mr::topo::Machine parse_machine(const std::string& spec) {
  const std::vector<std::string> parts = mr::util::split(spec, ':');
  const std::string where = "--machine " + spec;
  const auto arg = [&](std::size_t i, int fallback) {
    return i < parts.size() ? number<int>(where, parts[i]) : fallback;
  };
  if (parts[0] == "testbox") return mr::topo::testbox();
  if (parts[0] == "hydra") return mr::topo::hydra(arg(1, 4), arg(2, 1));
  if (parts[0] == "hydra_node") return mr::topo::hydra_node(arg(1, 1));
  if (parts[0] == "lumi") return mr::topo::lumi(arg(1, 2));
  if (parts[0] == "lumi_node") return mr::topo::lumi_node();
  if (parts[0] == "generic") {
    return mr::topo::generic(arg(1, 2), arg(2, 2), arg(3, 8));
  }
  throw InputError("unknown machine spec '" + spec + "'");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mr;
  static const std::set<std::string> kFlags = {
      "machine", "size",          "collective",     "bytes",
      "concurrency", "k",         "reps",           "threads",
      "slack",   "budget-points", "budget-seconds", "shard",
      "plan-cache-cap", "json"};
  std::optional<topo::Machine> machine;
  tune::TuneQuery query;
  EngineConfig config;
  bool json = false;
  try {
    std::map<std::string, std::string> flags;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0 || kFlags.count(arg.substr(2)) == 0) {
        throw InputError("unknown flag " + arg);
      }
      if (i + 1 >= argc) throw InputError("missing value for " + arg);
      flags[arg.substr(2)] = argv[++i];
    }
    const auto flag = [&](const char* name, const std::string& fallback) {
      const auto it = flags.find(name);
      return it == flags.end() ? fallback : it->second;
    };

    machine.emplace(parse_machine(flag("machine", "testbox")));
    query.collectives.clear();
    for (const std::string& name :
         util::split(flag("collective", "alltoall"), ',')) {
      query.collectives.push_back(tune::parse_collective(name));
    }
    query.comm_sizes = number_list<std::int64_t>(
        "--size", flag("size", std::to_string(machine->cores())));
    query.total_bytes =
        number_list<std::int64_t>("--bytes", flag("bytes", "8388608"));
    const std::string mode = flag("concurrency", "all");
    if (mode != "all" && mode != "single") {
      throw InputError("--concurrency must be 'all' or 'single'");
    }
    query.concurrency = mode == "all" ? tune::Concurrency::AllComms
                                      : tune::Concurrency::SingleComm;
    query.k = number<int>("--k", flag("k", "3"));
    query.repetitions = number<int>("--reps", flag("reps", "2"));
    query.threads = number<int>("--threads", flag("threads", "0"));
    query.completion_slack = number<double>("--slack", flag("slack", "0"));
    query.budget.max_points =
        number<std::int64_t>("--budget-points", flag("budget-points", "0"));
    query.budget.max_seconds =
        number<double>("--budget-seconds", flag("budget-seconds", "0"));
    const std::vector<std::string> shard =
        util::split(flag("shard", "0/1"), '/');
    if (shard.size() != 2) throw InputError("--shard must be i/n");
    query.shard_index = number<int>("--shard", shard[0]);
    query.shard_count = number<int>("--shard", shard[1]);
    // The query runs in its own Engine so --plan-cache-cap bounds THIS
    // query's cache, not a process-wide one.
    config.plan_cache_capacity =
        number<std::size_t>("--plan-cache-cap", flag("plan-cache-cap", "0"));
    json = number<int>("--json", flag("json", "0")) != 0;
  } catch (const std::exception& e) {
    std::cerr << "mrtune: " << e.what() << "\n";
    usage();
    return 2;
  }

  try {
    Engine engine(config);
    const tune::TuneReport report = tune::tune(engine, *machine, query);
    const Engine::Stats stats = engine.stats();
    // Plan-cache and stage-2 statistics; in --json mode they go to stderr
    // so stdout stays the canonical document.
    std::ostringstream cache_line;
    cache_line << "plan cache: " << stats.plan_cache.hits << " hits, "
               << stats.plan_cache.misses << " misses, "
               << stats.plan_cache.entries << " entries, "
               << stats.plan_cache.evictions << " evictions\n"
               << "stage-2 lane passes: "
               << report.stats.bound_structures_built << " for "
               << report.stats.bound_structures_built +
                      report.stats.bound_structure_reuses
               << " point bounds\n";
    if (json) {
      tune::write_json(std::cout, report, /*candidates=*/false);
      std::cerr << cache_line.str();
    } else {
      std::cout << tune::to_string(report) << cache_line.str();
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
