// lagover_cli — a command-line driver over the library, the way a
// downstream user would script it. Subcommands:
//
//   generate  --kind tf1|rand|bicorr|biuncorr --peers N [--seed S]
//             [--out FILE]             emit a population file
//   check     --population FILE        sufficiency + exact feasibility
//   construct --population FILE [--algorithm greedy|hybrid]
//             [--oracle o1|o2a|o2b|o3] [--seed S] [--max-rounds R]
//             [--snapshot FILE]        build a LagOver, report, save
//   validate  --snapshot FILE          diagnose a saved overlay
//   disseminate --snapshot FILE [--duration T] [--push-source]
//             [--publish-period P] [--seed S]
//             replay feed items over a saved overlay, report staleness
//
// Each subcommand takes exactly the flags listed for it.
// Exit code 0 = success/converged/feasible; 1 = the run did not succeed
// (not converged, infeasible, violations, unreadable input); 2 = usage
// error (unknown subcommand or flag, malformed value).
#include <fstream>
#include <iostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/flags.hpp"
#include "core/engine.hpp"
#include "core/snapshot.hpp"
#include "core/sufficiency.hpp"
#include "core/validator.hpp"
#include "feed/dissemination.hpp"
#include "workload/constraints.hpp"
#include "workload/population_io.hpp"

namespace lagover {
namespace {

int usage() {
  std::cerr << "usage: lagover_cli "
               "generate|check|construct|validate|disseminate [flags]\n"
               "(see the header comment of examples/lagover_cli.cpp)\n";
  return 2;
}

WorkloadKind parse_kind(const std::string& name) {
  if (name == "tf1") return WorkloadKind::kTf1;
  if (name == "rand") return WorkloadKind::kRand;
  if (name == "bicorr") return WorkloadKind::kBiCorr;
  if (name == "biuncorr") return WorkloadKind::kBiUnCorr;
  throw InvalidArgument("unknown workload kind: " + name);
}

OracleKind parse_oracle(const std::string& name) {
  if (name == "o1") return OracleKind::kRandom;
  if (name == "o2a") return OracleKind::kRandomCapacity;
  if (name == "o2b") return OracleKind::kRandomDelayCapacity;
  if (name == "o3") return OracleKind::kRandomDelay;
  throw InvalidArgument("unknown oracle (use o1|o2a|o2b|o3): " + name);
}

AlgorithmKind parse_algorithm(const std::string& name) {
  if (name == "greedy") return AlgorithmKind::kGreedy;
  if (name == "hybrid") return AlgorithmKind::kHybrid;
  throw InvalidArgument("unknown algorithm (use greedy|hybrid): " + name);
}

/// --name as a number > 0; a usage error otherwise.
double get_positive(const Flags& flags, const char* name, double fallback) {
  const double value = flags.get_double(name, fallback);
  if (!(value > 0.0))
    throw InvalidArgument("--" + std::string(name) + " must be > 0");
  return value;
}

/// argv of one subcommand: argv[0] is "lagover_cli <command>", so its
/// usage line names both.
using Args = const char* const*;

/// The one flag of check / validate, which take a single FILE.
std::string read_file_flag(int argc, Args argv, const char* name) {
  return read_flags_or_exit(argc, argv, {{name, "FILE"}},
                            [name](const Flags& flags) {
                              return flags.get_string(name, "");
                            });
}

int cmd_generate(int argc, Args argv) {
  const auto [kind, params, out] = read_flags_or_exit(
      argc, argv,
      {{"kind", "tf1|rand|bicorr|biuncorr"},
       {"peers", "N"},
       {"seed", "S"},
       {"out", "FILE"}},
      [](const Flags& flags) {
        WorkloadParams params;
        params.peers = static_cast<std::size_t>(
            flags.get_int_in("peers", 120, 1, kMaxCountFlag));
        params.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
        return std::tuple(parse_kind(flags.get_string("kind", "rand")), params,
                          flags.get_string("out", ""));
      });
  const Population population = generate_workload(kind, params);
  const std::string text = to_population_text(population);
  if (out.empty()) {
    std::cout << text;
  } else if (!save_population(population, out)) {
    std::cerr << "cannot write " << out << '\n';
    return 1;
  }
  return 0;
}

int cmd_check(int argc, Args argv) {
  const Population population =
      load_population(read_file_flag(argc, argv, "population"));
  const auto report = sufficiency_condition(population);
  std::cout << "consumers: " << population.size()
            << ", source fanout: " << population.source_fanout << '\n';
  std::cout << "sufficient condition: " << (report.holds ? "holds" : "fails");
  if (!report.holds)
    std::cout << " (first overloaded latency class: " << report.failing_level
              << ")";
  std::cout << '\n';
  const bool feasible = exactly_feasible(population);
  std::cout << "exactly feasible: " << (feasible ? "yes" : "no") << '\n';
  return feasible ? 0 : 1;
}

int cmd_construct(int argc, Args argv) {
  const auto [population_path, config, max_rounds, snapshot_path] =
      read_flags_or_exit(
          argc, argv,
          {{"population", "FILE"},
           {"algorithm", "greedy|hybrid"},
           {"oracle", "o1|o2a|o2b|o3"},
           {"seed", "S"},
           {"max-rounds", "R"},
           {"snapshot", "FILE"}},
          [](const Flags& flags) {
            EngineConfig config;
            config.algorithm =
                parse_algorithm(flags.get_string("algorithm", "hybrid"));
            config.oracle = parse_oracle(flags.get_string("oracle", "o3"));
            config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
            return std::tuple(flags.get_string("population", ""), config,
                              static_cast<Round>(flags.get_int_in(
                                  "max-rounds", 5000, 0, kMaxRoundsFlag)),
                              flags.get_string("snapshot", ""));
          });
  Engine engine(load_population(population_path), config);
  const auto converged = engine.run_until_converged(max_rounds);

  if (converged.has_value())
    std::cout << "converged in " << *converged << " rounds\n";
  else
    std::cout << "did not converge\n"
              << validate_overlay(engine.overlay()).to_string();

  if (!snapshot_path.empty()) {
    std::ofstream out(snapshot_path);
    if (!out) {
      std::cerr << "cannot write " << snapshot_path << '\n';
      return 1;
    }
    write_snapshot(engine.overlay(), out);
    std::cout << "snapshot written to " << snapshot_path << '\n';
  }
  return converged.has_value() ? 0 : 1;
}

int cmd_validate(int argc, Args argv) {
  std::ifstream in(read_file_flag(argc, argv, "snapshot"));
  if (!in) {
    std::cerr << "cannot read snapshot\n";
    return 1;
  }
  const Overlay overlay = read_snapshot(in);
  const ValidationReport report = validate_overlay(overlay);
  std::cout << report.to_string();
  return report.converged() ? 0 : 1;
}

int cmd_disseminate(int argc, Args argv) {
  const auto [snapshot_path, config, duration] = read_flags_or_exit(
      argc, argv,
      {{"snapshot", "FILE"},
       {"duration", "T"},
       {"push-source", ""},
       {"publish-period", "P"},
       {"seed", "S"}},
      [](const Flags& flags) {
        feed::DisseminationConfig config;
        config.push_source = flags.get_bool("push-source", false);
        config.source.publish_period =
            get_positive(flags, "publish-period", 3.0);
        config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
        return std::tuple(flags.get_string("snapshot", ""), config,
                          get_positive(flags, "duration", 200.0));
      });
  std::ifstream in(snapshot_path);
  if (!in) {
    std::cerr << "cannot read snapshot\n";
    return 1;
  }
  const Overlay overlay = read_snapshot(in);
  const auto report = feed::run_dissemination(overlay, config, duration);
  std::cout << "published " << report.items_published << " items over "
            << duration << " time units\n"
            << "source requests/unit: " << report.source_request_rate
            << " (" << report.source_empty_requests << " empty)\n"
            << "push messages: " << report.push_messages << '\n'
            << "staleness-budget violations: " << report.violations << '\n';
  return report.violations == 0 ? 0 : 1;
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const std::string program = "lagover_cli " + command;
  std::vector<const char*> args(argv + 1, argv + argc);
  args[0] = program.c_str();
  const int count = static_cast<int>(args.size());
  try {
    if (command == "generate") return cmd_generate(count, args.data());
    if (command == "check") return cmd_check(count, args.data());
    if (command == "construct") return cmd_construct(count, args.data());
    if (command == "validate") return cmd_validate(count, args.data());
    if (command == "disseminate") return cmd_disseminate(count, args.data());
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
  return usage();
}

}  // namespace
}  // namespace lagover

int main(int argc, char** argv) { return lagover::run(argc, argv); }
