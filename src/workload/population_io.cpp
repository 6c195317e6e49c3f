#include "workload/population_io.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/flags.hpp"

namespace lagover {

Population parse_population(std::istream& in) {
  Population population;
  bool have_source = false;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Strip comments and whitespace-only lines.
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string keyword;
    if (!(fields >> keyword)) continue;

    auto malformed = [&](const std::string& detail) -> void {
      throw InvalidArgument("population line " + std::to_string(line_number) +
                            ": " + detail);
    };
    // The bound is checked before any of the `count` consumers is added.
    auto add_consumers = [&](long count, int fanout, int latency) {
      if (count > kMaxCountFlag -
                      static_cast<long>(population.consumers.size()))
        malformed("more than " + std::to_string(kMaxCountFlag) +
                  " consumers");
      for (long k = 0; k < count; ++k)
        population.consumers.push_back(
            NodeSpec{static_cast<NodeId>(population.consumers.size() + 1),
                     Constraints{fanout, latency}});
    };

    if (keyword == "source") {
      if (!(fields >> population.source_fanout))
        malformed("expected 'source <fanout>'");
      if (population.source_fanout < 0) malformed("negative source fanout");
      have_source = true;
    } else if (keyword == "peer") {
      int fanout = 0;
      int latency = 0;
      if (!(fields >> fanout >> latency))
        malformed("expected 'peer <fanout> <latency>'");
      add_consumers(1, fanout, latency);
    } else if (keyword == "peers") {
      long count = 0;
      int fanout = 0;
      int latency = 0;
      if (!(fields >> count >> fanout >> latency))
        malformed("expected 'peers <count> <fanout> <latency>'");
      if (count < 0) malformed("negative peer count");
      add_consumers(count, fanout, latency);
    } else {
      malformed("unknown keyword '" + keyword + "'");
    }
  }
  if (!have_source)
    throw InvalidArgument("population file missing 'source' line");
  validate(population);  // range checks (latency >= 1 etc.)
  return population;
}

Population parse_population_text(const std::string& text) {
  std::istringstream in(text);
  return parse_population(in);
}

Population load_population(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InvalidArgument("cannot read population file: " + path);
  return parse_population(in);
}

std::string to_population_text(const Population& population) {
  std::ostringstream out;
  out << "source " << population.source_fanout << '\n';
  std::size_t i = 0;
  const auto& consumers = population.consumers;
  while (i < consumers.size()) {
    std::size_t j = i;
    while (j < consumers.size() &&
           consumers[j].constraints == consumers[i].constraints)
      ++j;
    const auto run = j - i;
    if (run >= 3) {
      out << "peers " << run << ' ' << consumers[i].constraints.fanout << ' '
          << consumers[i].constraints.latency << '\n';
    } else {
      for (std::size_t k = i; k < j; ++k)
        out << "peer " << consumers[k].constraints.fanout << ' '
            << consumers[k].constraints.latency << '\n';
    }
    i = j;
  }
  return out.str();
}

bool save_population(const Population& population, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << to_population_text(population);
  return static_cast<bool>(out);
}

}  // namespace lagover
