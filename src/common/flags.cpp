#include "common/flags.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

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

std::vector<std::string> Flags::unknown(
    const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& entry : values_)
    if (std::find(known.begin(), known.end(), entry.first) == known.end())
      out.push_back(entry.first);
  return out;
}

}  // namespace lagover
