// Declarative scenario driver: loads a "lagover.scenario.v1" JSON file
// (see src/workload/scenario.hpp for the schema), runs its trials, and
// emits the standard "lagover.bench.v1" summary. Experiments become
// data: a new robustness study is a new JSON file, not a new binary.
//
//   bench_scenario --scenario examples/scenario_byzantine.json
//
// --trials and --seed override the scenario file when passed explicitly;
// every other knob lives in the file. Deterministic: running the same
// file twice produces byte-identical bench JSON (CI asserts this).
#include <iostream>
#include <string>

#include "bench/bench_util.hpp"
#include "common/flags.hpp"
#include "stats/sample.hpp"
#include "workload/scenario.hpp"

namespace lagover {
namespace {

int run(int argc, char** argv) {
  auto options = bench::BenchOptions::parse(argc, argv, {{"scenario", "FILE"}});
  const Flags flags(argc, argv);
  const std::string path = flags.get_string("scenario", "");
  if (path.empty()) {
    std::cerr << "usage: bench_scenario --scenario <file.json> "
                 "[--trials N] [--seed N]\n";
    return 2;
  }
  workload::Scenario scenario;
  std::string error;
  if (!workload::load_scenario_file(path, scenario, &error)) {
    std::cerr << "bench_scenario: " << error << "\n";
    return 2;
  }
  // CLI overrides (only when passed explicitly; the file is the source
  // of truth otherwise). The shared options keep their own defaults for
  // the bench JSON "options" block.
  if (flags.has("trials")) scenario.trials = options.trials;
  if (flags.has("seed")) scenario.seed = options.seed;
  options.trials = scenario.trials;
  options.seed = scenario.seed;
  options.peers = scenario.workload_params.peers;

  std::cout << "# Scenario \"" << scenario.name << "\" ("
            << (scenario.async ? "async" : "rounds") << ", "
            << to_string(scenario.algorithm) << ", Oracle "
            << to_string(scenario.oracle) << ", "
            << scenario.workload_params.peers << " peers, "
            << scenario.trials << " trial(s), horizon " << scenario.horizon
            << ")\n";

  bench::BenchJson bench_json("bench_scenario", options);
  bench::TelemetryExport telemetry_export(options);

  Table table({"trial", "converged", "satisfied", "audit", "quarantines",
               "blacklists", "detaches", "domain crashes", "feed delivery",
               "feed late"});
  int converged_trials = 0;
  std::uint64_t audit_violations = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t blacklists = 0;
  std::uint64_t quarantine_detaches = 0;
  std::uint64_t domain_crashes = 0;
  std::uint64_t withheld_pushes = 0;
  std::uint64_t oracle_admitted = 0;
  std::uint64_t oracle_rejected = 0;
  std::uint64_t oracle_stale_served = 0;
  std::uint64_t oracle_breaker_trips = 0;
  std::uint64_t starvation_detaches = 0;
  std::uint64_t shed_pushes = 0;
  std::uint64_t storm_joiners = 0;
  Sample satisfied;
  Sample feed_delivery;
  Sample feed_late;
  for (int trial = 0; trial < scenario.trials; ++trial) {
    const workload::ScenarioTrialResult result =
        workload::run_scenario_trial(scenario, trial);
    if (result.converged) ++converged_trials;
    satisfied.add(result.satisfied_fraction);
    audit_violations += result.audit_violations;
    quarantines += result.quarantines;
    blacklists += result.blacklists;
    quarantine_detaches += result.quarantine_detaches;
    domain_crashes += result.domain_crashes;
    withheld_pushes += result.feed_withheld_pushes;
    oracle_admitted += result.oracle_admitted;
    oracle_rejected += result.oracle_rejected;
    oracle_stale_served += result.oracle_stale_served;
    oracle_breaker_trips += result.oracle_breaker_trips;
    starvation_detaches += result.starvation_detaches;
    shed_pushes += result.feed_shed_pushes;
    storm_joiners += result.storm_joiners;
    const bool has_feed = result.feed_delivery_ratio >= 0.0;
    if (has_feed) {
      feed_delivery.add(result.feed_delivery_ratio);
      feed_late.add(result.feed_late_fraction);
    }
    table.add_row({std::to_string(trial),
                   result.converged ? "yes" : "no",
                   format_double(result.satisfied_fraction, 3),
                   std::to_string(result.audit_violations),
                   std::to_string(result.quarantines),
                   std::to_string(result.blacklists),
                   std::to_string(result.quarantine_detaches),
                   std::to_string(result.domain_crashes),
                   has_feed ? format_double(result.feed_delivery_ratio, 3)
                            : "-",
                   has_feed ? format_double(result.feed_late_fraction, 3)
                            : "-"});
  }
  bench::print_table("scenario \"" + scenario.name + "\" per-trial results",
                     table, options, "scenario");

  bench_json.add_count("converged_trials",
                       static_cast<std::uint64_t>(converged_trials));
  bench_json.add_count("trials", static_cast<std::uint64_t>(scenario.trials));
  bench_json.add_scalar("median_satisfied_fraction", satisfied.median());
  bench_json.add_count("audit_violations", audit_violations);
  bench_json.add_count("quarantines", quarantines);
  bench_json.add_count("blacklists", blacklists);
  bench_json.add_count("quarantine_detaches", quarantine_detaches);
  bench_json.add_count("domain_crashes", domain_crashes);
  if (!feed_delivery.empty()) {
    bench_json.add_scalar("median_feed_delivery_ratio",
                          feed_delivery.median());
    bench_json.add_scalar("median_feed_late_fraction", feed_late.median());
    bench_json.add_count("feed_withheld_pushes", withheld_pushes);
  }
  // Overload counters appear only when the scenario declares the
  // section, so pre-overload scenario files keep byte-identical output.
  if (!scenario.overload.empty()) {
    bench_json.add_count("oracle_admitted", oracle_admitted);
    bench_json.add_count("oracle_rejected", oracle_rejected);
    bench_json.add_count("oracle_stale_served", oracle_stale_served);
    bench_json.add_count("oracle_breaker_trips", oracle_breaker_trips);
    bench_json.add_count("starvation_detaches", starvation_detaches);
    bench_json.add_count("shed_pushes", shed_pushes);
    bench_json.add_count("storm_joiners", storm_joiners);
  }
  bench_json.add_table("scenario", table);
  telemetry_export.finish(bench_json);
  bench_json.write(options);
#ifdef LAGOVER_AUDIT
  if (audit_violations != 0) {
    std::cerr << "AUDIT FAILED: " << audit_violations
              << " invariant violation(s)\n";
    return 1;
  }
  std::cout << "# audit: clean (0 violations)\n";
#endif
  return 0;
}

}  // namespace
}  // namespace lagover

int main(int argc, char** argv) { return lagover::run(argc, argv); }
