// Strict command-line parsing shared by the example CLIs (mrtune_cli,
// mrenum_cli, verify_cli). Every flag is "--name value"; an unknown flag,
// a flag without its value, a malformed number or an unknown machine spec
// throws cli::InputError naming the input. The CLIs report it with status
// 2 ("bad input"); status 1 keeps meaning the run itself failed or, for
// verify_cli, that the analysis found a defect.
#pragma once

#include <charconv>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "mixradix/topo/presets.hpp"
#include "mixradix/util/strings.hpp"

namespace cli {

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

/// The "--name value" pairs of argv[first, argc), checked against `known`
/// (flag names without the dashes).
class Flags {
 public:
  Flags(int argc, char** argv, int first, const std::set<std::string>& known) {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0 || known.count(arg.substr(2)) == 0) {
        throw InputError("unknown flag " + arg);
      }
      if (i + 1 >= argc) throw InputError("missing value for " + arg);
      values_[arg.substr(2)] = argv[++i];
    }
  }

  /// The value given for --name, else `fallback`.
  std::string get(const std::string& name, const std::string& fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// A preset machine: testbox | hydra:N[:nics] | hydra_node[:nics] |
/// lumi:N | lumi_node | generic:n:s:c.
inline mr::topo::Machine parse_machine(const std::string& spec) {
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

}  // namespace cli
