// A tiny command-line flag parser for the bench and example binaries.
// Supports --name=value and --name value forms plus boolean switches.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace lagover {

/// Parses argv into a name->value map. Unknown positional arguments are
/// collected separately so binaries can reject typos explicitly.
class Flags {
 public:
  Flags(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  /// Numeric getters throw InvalidArgument (a usage error, naming the
  /// flag) when the value is empty, malformed or out of range.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// The parsed --names that are not in `known`, in sorted order.
  std::vector<std::string> unknown(const std::vector<std::string>& known) const;

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// One flag a program accepts: its --name and the placeholder its usage
/// line shows for the value ("" for a bare switch).
struct FlagSpec {
  const char* name;
  const char* arg;
};

/// Parses the whole of `text` as a decimal integer in [0, max]: no sign,
/// space or trailing characters. Throws InvalidArgument naming `what`
/// otherwise (for positional arguments; flags use Flags::get_int).
std::uint64_t parse_uint(const std::string& text, std::uint64_t max,
                         const std::string& what);

/// Prints `error` and "usage: <program> [--name ARG]..." for `specs` to
/// stderr and exits with status 2.
[[noreturn]] void exit_usage(const std::string& error, const char* program,
                             const std::vector<FlagSpec>& specs);

/// Reads a program's options with `read(flags)`. A --name outside
/// `specs`, or an InvalidArgument from `read` (a getter given a
/// malformed value), ends the process through exit_usage.
template <typename Read>
auto read_flags_or_exit(int argc, const char* const* argv,
                        const std::vector<FlagSpec>& specs, Read read) {
  const char* program = argc > 0 ? argv[0] : "";
  const Flags flags(argc, argv);
  try {
    std::vector<std::string> known;
    for (const FlagSpec& spec : specs) known.emplace_back(spec.name);
    const std::vector<std::string> unknown = flags.unknown(known);
    if (!unknown.empty())
      throw InvalidArgument("unknown flag --" + unknown.front());
    return read(flags);
  } catch (const InvalidArgument& error) {
    exit_usage(error.what(), program, specs);
  }
}

}  // namespace lagover
