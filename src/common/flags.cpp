#include "common/flags.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iostream>

#include "common/error.hpp"

namespace lagover {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare switch
    }
  }
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string Flags::get_string(const std::string& name,
                              const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

namespace {

/// Throws the usage error for `--name value` unless strto* consumed all
/// of a non-empty `value` without overflowing.
void check_number(const std::string& name, const std::string& value,
                  const char* end, const char* kind) {
  if (!value.empty() && *end == '\0' && errno != ERANGE) return;
  throw InvalidArgument("--" + name + " expects " + kind + ", got '" + value +
                        "'");
}

}  // namespace

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  const std::int64_t value = std::strtoll(it->second.c_str(), &end, 10);
  check_number(name, it->second, end, "an integer");
  return value;
}

std::int64_t Flags::get_int_in(const std::string& name,
                               std::int64_t fallback, std::int64_t min,
                               std::int64_t max) const {
  const std::int64_t value = get_int(name, fallback);
  if (value < min || value > max)
    throw InvalidArgument("--" + name + " must be in [" +
                          std::to_string(min) + ", " + std::to_string(max) +
                          "]");
  return value;
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(it->second.c_str(), &end);
  check_number(name, it->second, end, "a number");
  return value;
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::uint64_t parse_uint(const std::string& text, std::uint64_t max,
                         const std::string& what) {
  errno = 0;
  const std::uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
  const bool malformed =
      text.empty() || text.find_first_not_of("0123456789") != text.npos;
  if (malformed || errno == ERANGE || value > max)
    throw InvalidArgument(what + " expects an integer in [0, " +
                          std::to_string(max) + "], got '" + text + "'");
  return value;
}

void exit_usage(const std::string& error, const char* program,
                const std::vector<FlagSpec>& specs) {
  std::string usage = std::string("usage: ") + program;
  for (const FlagSpec& spec : specs) {
    usage += std::string(" [--") + spec.name;
    if (*spec.arg != '\0') usage += std::string(" ") + spec.arg;
    usage += "]";
  }
  std::cerr << error << '\n' << usage << '\n';
  std::exit(2);
}

std::vector<std::string> Flags::unknown(
    const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& entry : values_)
    if (std::find(known.begin(), known.end(), entry.first) == known.end())
      out.push_back(entry.first);
  return out;
}

}  // namespace lagover
