// A tiny command-line flag parser for the bench and example binaries.
// Supports --name=value and --name value forms plus boolean switches.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

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

}  // namespace lagover
