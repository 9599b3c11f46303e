// Strict command-line parsing shared by the example programs and the
// figure benches. The CLIs (mrtune_cli, mrenum_cli, verify_cli) take
// "--name value" flags; the small examples take positional arguments. An
// unknown flag, a flag without its value, a surplus argument, a malformed
// number, an out-of-range value or a bad machine spec throws
// cli::InputError naming the input.
// The programs report it with status 2 ("bad input"); status 1 keeps
// meaning the run itself failed or, for verify_cli, that the analysis
// found a defect.
#pragma once

#include <charconv>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "mixradix/topo/presets.hpp"
#include "mixradix/util/expect.hpp"
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

/// A well-formed but out-of-range value is bad input too: unless `ok`,
/// throw InputError("<where> must <rule>, got <text>"). The CLIs check each
/// flag's range before the library sees the value.
inline void require(bool ok, const std::string& where, const std::string& rule,
                    const std::string& text) {
  if (!ok) throw InputError(where + " must " + rule + ", got " + text);
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

/// The positional arguments argv[1, argc) of a program that takes at most
/// `names.size()` of them; `names` label them in messages.
class Args {
 public:
  Args(int argc, char** argv, std::vector<std::string> names)
      : names_(std::move(names)), values_(argv + 1, argv + argc) {
    if (values_.size() > names_.size()) {
      throw InputError("unexpected argument '" + values_[names_.size()] + "'");
    }
  }

  /// Argument i (0-based), else `fallback`.
  std::string get(std::size_t i, const std::string& fallback) const {
    return i < values_.size() ? values_[i] : fallback;
  }

  /// Argument i parsed strictly as T, else `fallback`.
  template <typename T>
  T number(std::size_t i, T fallback) const {
    return i < values_.size() ? cli::number<T>(names_[i], values_[i])
                              : fallback;
  }

 private:
  std::vector<std::string> names_;
  std::vector<std::string> values_;
};

/// A preset machine: testbox | hydra:N[:nics] | hydra_node[:nics] |
/// lumi:N | lumi_node | generic:n:s:c. Fields beyond the preset's and
/// values the preset rejects are input errors too.
inline mr::topo::Machine parse_machine(const std::string& spec) {
  using Fields = std::vector<int>;
  // One entry per preset: the defaults of its fields (so also how many it
  // takes) and its builder.
  struct Preset {
    Fields defaults;
    mr::topo::Machine (*build)(const Fields&);
  };
  static const std::map<std::string, Preset> kPresets = {
      {"testbox", {{}, [](const Fields&) { return mr::topo::testbox(); }}},
      {"hydra",
       {{4, 1}, [](const Fields& f) { return mr::topo::hydra(f[0], f[1]); }}},
      {"hydra_node",
       {{1}, [](const Fields& f) { return mr::topo::hydra_node(f[0]); }}},
      {"lumi", {{2}, [](const Fields& f) { return mr::topo::lumi(f[0]); }}},
      {"lumi_node", {{}, [](const Fields&) { return mr::topo::lumi_node(); }}},
      {"generic", {{2, 2, 8}, [](const Fields& f) {
                     return mr::topo::generic(f[0], f[1], f[2]);
                   }}}};
  const std::vector<std::string> parts = mr::util::split(spec, ':');
  const auto preset = kPresets.find(parts[0]);
  if (preset == kPresets.end()) {
    throw InputError("unknown machine spec '" + spec + "'");
  }
  const std::string where = "--machine " + spec;
  Fields fields = preset->second.defaults;
  if (parts.size() - 1 > fields.size()) {
    throw InputError("too many fields in " + where + " (" + parts[0] +
                     " takes at most " + std::to_string(fields.size()) + ")");
  }
  for (std::size_t i = 1; i < parts.size(); ++i) {
    fields[i - 1] = number<int>(where, parts[i]);
  }
  try {
    return preset->second.build(fields);
  } catch (const mr::invalid_argument&) {
    throw InputError("out-of-range value in " + where);
  }
}

}  // namespace cli
