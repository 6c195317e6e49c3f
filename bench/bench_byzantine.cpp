// Byzantine robustness sweep (ROADMAP "meaner worlds"): delay-liar
// fractions {0, 5%, 20%} with the defense ladder off vs on, under both
// construction algorithms, plus a mixed-adversary cell (liars +
// fanout-liars + free-riders + flappers). Each trial constructs the
// overlay event-driven (Oracle Random-Delay by default), then runs a
// loss-free feed phase over the final tree; the headline metric is the
// deadline-miss rate — the fraction of expected deliveries that never
// arrived or arrived past the consumer's staleness budget (delay-liars
// manufacture exactly such late chains).
//
// Expected shape: undefended miss rate grows with the liar fraction
// (graceless collapse); with defenses on, child-side delay verification
// and the Oracle plausibility filter quarantine the liars and the
// defended 5% cell stays within 2x the fault-free baseline.
#include <algorithm>
#include <iostream>
#include <memory>

#include "bench/bench_util.hpp"
#include "common/flags.hpp"
#include "core/async_engine.hpp"
#include "fault/byzantine.hpp"
#include "feed/reliability.hpp"
#include "stats/sample.hpp"

namespace lagover {
namespace {

constexpr double kLiarFractions[] = {0.0, 0.05, 0.2};
constexpr double kFeedDuration = 120.0;

struct CellResult {
  int converged = 0;
  Sample satisfied;
  Sample honest_satisfied;
  Sample miss_rate;
  std::uint64_t quarantines = 0;
  std::uint64_t blacklists = 0;
  std::uint64_t implausible_skips = 0;
  std::uint64_t quarantine_detaches = 0;
  std::uint64_t audit_violations = 0;
};

/// Satisfied fraction over the honest consumers only — the adversary's
/// own nodes "suffering" is not damage worth counting.
double honest_satisfied_fraction(const Overlay& overlay,
                                 const fault::AdversaryBook* book) {
  std::size_t honest = 0;
  std::size_t satisfied = 0;
  for (NodeId id = 1; id < overlay.node_count(); ++id) {
    if (!overlay.online(id)) continue;
    if (book != nullptr && book->role(id) != fault::AdversaryClass::kHonest)
      continue;
    ++honest;
    if (overlay.satisfied(id)) ++satisfied;
  }
  return honest == 0 ? 1.0
                     : static_cast<double>(satisfied) /
                           static_cast<double>(honest);
}

CellResult run_cell(const fault::ByzantineSpec& spec, bool defended,
                    AlgorithmKind algorithm, OracleKind oracle, double horizon,
                    const bench::BenchOptions& options,
                    bench::TelemetryExport& telemetry_export) {
  CellResult cell;
  for (int trial = 0; trial < options.trials; ++trial) {
    const std::uint64_t seed =
        options.seed + static_cast<std::uint64_t>(trial) * 7919;
    WorkloadParams params;
    params.peers = options.peers;
    params.seed = seed;
    AsyncConfig config;
    config.algorithm = algorithm;
    config.oracle = oracle;
    config.seed = seed;
    std::shared_ptr<fault::AdversaryBook> book;
    if (!spec.empty()) {
      book = std::make_shared<fault::AdversaryBook>(spec, options.peers + 1);
      config.adversary = book;
    }
    config.defense.enabled = defended;
    AsyncEngine engine(generate_workload(WorkloadKind::kBiUnCorr, params),
                       config);
#ifdef LAGOVER_AUDIT
    engine.audit_bus().subscribe([](const InvariantViolation& v) {
      std::cerr << "AUDIT " << to_string(v.invariant) << " cause=" << v.cause
                << " node=" << v.node << " " << v.detail << "\n";
    });
#endif
    engine.set_sampler(1.0, [&](SimTime t) { telemetry_export.sample(t); });
    engine.run_for(horizon);
    cell.audit_violations += engine.audit_violations();
    if (engine.overlay().all_satisfied()) ++cell.converged;
    cell.satisfied.add(engine.overlay().satisfied_fraction());
    cell.honest_satisfied.add(
        honest_satisfied_fraction(engine.overlay(), book.get()));
    const NodeRuntime& runtime = engine.runtime();
    const health::SuspicionBook& suspicion = runtime.suspicion();
    cell.quarantines += suspicion.quarantines();
    cell.blacklists += suspicion.blacklists();
    cell.quarantine_detaches += runtime.quarantine_detaches();
    if (const fault::ByzantineOracle* wrapped = runtime.byzantine_oracle())
      cell.implausible_skips += wrapped->implausible_skips();

    // Feed phase over the final overlay: loss-free pushes, no repair —
    // every miss is structural (a late liar chain, a withheld relay, or
    // an orphaned consumer that receives nothing), not transport noise.
    feed::LossyConfig feed_config;
    feed_config.base.seed = seed;
    feed_config.base.source.seed = seed;
    feed_config.push_loss = 0.0;
    feed_config.enable_recovery = false;
    feed_config.adversary = book;
    const feed::LossyReport report = feed::run_lossy_dissemination(
        engine.overlay(), feed_config, kFeedDuration);
    // Deadline-miss rate over every ONLINE consumer (the report's
    // expected set covers only connected ones — but a consumer the
    // adversary kept orphaned misses every deadline, and not counting
    // it would let "disconnect the victims" read as zero damage).
    std::size_t online = 0;
    for (NodeId id = 1; id < engine.overlay().node_count(); ++id)
      if (engine.overlay().online(id)) ++online;
    const double counted_items =
        report.connected_consumers == 0
            ? 0.0
            : static_cast<double>(report.expected_deliveries) /
                  static_cast<double>(report.connected_consumers);
    const double expected_all = counted_items * static_cast<double>(online);
    // delivery_ratio already excludes the in-flight tail window, so
    // delivered-in-window = ratio x expected; subtract the late ones.
    const double on_time =
        report.delivery_ratio *
            static_cast<double>(report.expected_deliveries) -
        static_cast<double>(report.late_deliveries);
    cell.miss_rate.add(
        expected_all <= 0.0
            ? 0.0
            : std::clamp(1.0 - on_time / expected_all, 0.0, 1.0));
  }
  return cell;
}

void add_cell_row(Table& table, const std::string& mix, bool defended,
                  AlgorithmKind algorithm, const CellResult& cell,
                  const bench::BenchOptions& options) {
  table.add_row(
      {to_string(algorithm), mix, defended ? "on" : "off",
       std::to_string(cell.converged) + "/" + std::to_string(options.trials),
       format_double(cell.satisfied.median(), 3),
       format_double(cell.honest_satisfied.median(), 3),
       format_double(cell.miss_rate.median(), 3),
       std::to_string(cell.quarantines), std::to_string(cell.blacklists),
       std::to_string(cell.implausible_skips),
       std::to_string(cell.quarantine_detaches)});
}

int run(int argc, char** argv) {
  auto options = bench::BenchOptions::parse(argc, argv, {{"oracle", "NAME"}});
  const Flags flags(argc, argv);
  OracleKind oracle = OracleKind::kRandomDelay;
  const std::string oracle_name = flags.get_string("oracle", "random_delay");
  if (oracle_name == "random") oracle = OracleKind::kRandom;
  else if (oracle_name == "random_capacity")
    oracle = OracleKind::kRandomCapacity;
  else if (oracle_name == "random_delay_capacity")
    oracle = OracleKind::kRandomDelayCapacity;
  else if (oracle_name != "random_delay") {
    std::cerr << "unknown --oracle " << oracle_name << "\n";
    return 2;
  }
  const double horizon = std::clamp(
      static_cast<double>(options.max_rounds), 60.0, 600.0);

  std::cout << "# Byzantine sweep — delay-liar fractions {0, 5%, 20%}, "
               "defenses off vs on; "
            << options.peers << " peers, " << options.trials
            << " trials per cell, horizon " << horizon << ", Oracle "
            << to_string(oracle) << "\n";

  bench::BenchJson bench_json("bench_byzantine", options);
  bench::TelemetryExport telemetry_export(options);
  std::uint64_t audit_violations = 0;

  Table table({"algorithm", "adversary", "defenses", "converged",
               "satisfied", "honest satisfied", "miss rate", "quarantines",
               "blacklists", "implausible", "detaches"});
  double miss_baseline = -1.0;
  double miss_defended_5 = -1.0;
  double miss_undefended_5 = -1.0;
  double miss_undefended_20 = -1.0;
  for (auto algorithm : {AlgorithmKind::kGreedy, AlgorithmKind::kHybrid}) {
    for (double fraction : kLiarFractions) {
      fault::ByzantineSpec spec;
      spec.delay_liar_fraction = fraction;
      for (bool defended : {false, true}) {
        // The fault-free cell is identical defended/undefended (the
        // defense ladder is inert without an adversary); run it once.
        if (fraction == 0.0 && defended) continue;
        const CellResult cell =
            run_cell(spec, defended, algorithm, oracle, horizon, options,
                     telemetry_export);
        audit_violations += cell.audit_violations;
        const std::string mix =
            fraction == 0.0 ? "none"
                            : format_double(fraction * 100.0, 0) +
                                  "% delay-liars";
        add_cell_row(table, mix, defended, algorithm, cell, options);
        if (algorithm == AlgorithmKind::kHybrid) {
          if (fraction == 0.0) miss_baseline = cell.miss_rate.median();
          if (fraction == 0.05 && defended)
            miss_defended_5 = cell.miss_rate.median();
          if (fraction == 0.05 && !defended)
            miss_undefended_5 = cell.miss_rate.median();
          if (fraction == 0.2 && !defended)
            miss_undefended_20 = cell.miss_rate.median();
        }
      }
    }
  }
  bench::print_table("delay-liar sweep — deadline-miss rate (median)", table,
                     options, "byzantine");

  // Mixed adversary: every class at once (5% each).
  Table mixed_table({"algorithm", "adversary", "defenses", "converged",
                     "satisfied", "honest satisfied", "miss rate",
                     "quarantines", "blacklists", "implausible", "detaches"});
  fault::ByzantineSpec mixed;
  mixed.delay_liar_fraction = 0.05;
  mixed.fanout_liar_fraction = 0.05;
  mixed.free_rider_fraction = 0.05;
  mixed.flapper_fraction = 0.05;
  for (auto algorithm : {AlgorithmKind::kGreedy, AlgorithmKind::kHybrid}) {
    for (bool defended : {false, true}) {
      const CellResult cell = run_cell(mixed, defended, algorithm, oracle,
                                       horizon, options, telemetry_export);
      audit_violations += cell.audit_violations;
      add_cell_row(mixed_table, "mixed 4x5%", defended, algorithm, cell,
                   options);
    }
  }
  bench::print_table("mixed adversary — all four classes at 5%", mixed_table,
                     options, "byzantine_mixed");

  bench_json.add_scalar("miss_rate_baseline", miss_baseline);
  bench_json.add_scalar("miss_rate_defended_5pct", miss_defended_5);
  bench_json.add_scalar("miss_rate_undefended_5pct", miss_undefended_5);
  bench_json.add_scalar("miss_rate_undefended_20pct", miss_undefended_20);
  bench_json.add_table("byzantine", table);
  bench_json.add_table("byzantine_mixed", mixed_table);
  bench_json.add_count("audit_violations", audit_violations);
  telemetry_export.finish(bench_json);
  bench_json.write(options);
#ifdef LAGOVER_AUDIT
  if (audit_violations != 0) {
    std::cerr << "AUDIT FAILED: " << audit_violations
              << " invariant violation(s) across the sweep\n";
    return 1;
  }
  std::cout << "# audit: clean (0 violations)\n";
#endif
  return 0;
}

}  // namespace
}  // namespace lagover

int main(int argc, char** argv) { return lagover::run(argc, argv); }
