// Overload-resilience sweep (flash crowds vs the capacity model): a
// fixed set of established subscribers runs live dissemination under a
// per-relay forwarding budget; a join storm then multiplies the
// population 10x in a single tick. The sweep crosses storm {off, on} x
// relay budget {constrained, relaxed} x defenses {off, on} x
// construction algorithm {greedy, hybrid}.
//
//   defenses off — the budget still binds (physics), but drops are
//     arbitrary tail drops, rejected orphans stampede the Oracle, and
//     starved children sit and starve: the established subscribers'
//     deadline-miss rate collapses with the crowd.
//   defenses on — Oracle admission control (retry-after + breaker)
//     spreads the stampede, relays shed deadline-aware (RelayPolicy:
//     the most slack in a subtree first) with reduced fanout while
//     degraded, and starved children re-parent through the
//     suspicion/failover ladder (LiveConfig's live-only rules): the miss rate
//     stays within a bounded factor of the uncongested baseline.
//
// The headline metric is the established-subscriber deadline-miss rate:
// the fraction of (measured item, established subscriber) pairs that
// never arrived or arrived past the subscriber's staleness budget. The
// crowd's own staleness is not counted — absorbing latecomers gracefully
// must not be scored as damage to them.
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>

#include "bench/bench_util.hpp"
#include "feed/live.hpp"
#include "stats/sample.hpp"
#include "workload/churn.hpp"

namespace lagover {
namespace {

/// Join-storm intensity: joiners = kCrowdMultiple x established.
constexpr int kCrowdMultiple = 10;
constexpr Round kWarmupRounds = 60;
constexpr Round kMeasuredRounds = 240;
/// Storm lands mid-measurement so both the hit and the recovery are in
/// the measured window.
constexpr Round kStormRound = kWarmupRounds + 40;

struct CellResult {
  Sample miss_rate;
  Sample on_time;
  std::uint64_t shed = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t starvation_detaches = 0;
  std::uint64_t degraded_ticks = 0;
  std::uint64_t oracle_rejected = 0;
  std::uint64_t oracle_stale_served = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t audit_violations = 0;
};

CellResult run_cell(bool storm, bool defended, std::uint32_t budget,
                    AlgorithmKind algorithm,
                    const bench::BenchOptions& options) {
  // The established subscribers are ids 1..established; the crowd is the
  // parked tail. The baseline (storm off) parks the same crowd forever,
  // so the established set is identical across cells and the only
  // difference the storm cell adds is the crowd's arrival.
  const auto peers = static_cast<NodeId>(options.peers);
  const NodeId established =
      std::max<NodeId>(2, peers / (1 + kCrowdMultiple));
  CellResult cell;
  for (int trial = 0; trial < options.trials; ++trial) {
    const std::uint64_t seed =
        options.seed + static_cast<std::uint64_t>(trial) * 7919;
    WorkloadParams params;
    params.peers = options.peers;
    params.seed = seed;
    feed::LiveConfig config;
    config.engine.algorithm = algorithm;
    config.engine.oracle = OracleKind::kRandomDelay;
    config.engine.seed = seed;
    config.publish_every = 2;
    config.warmup_rounds = kWarmupRounds;
    config.measured_rounds = kMeasuredRounds;
    config.capacity.relay_budget = budget;
    config.capacity.queue_limit = 24;
    config.capacity.shedding = defended;
    // Chronic-only escalation (the LiveConfig default, pinned here
    // because the sweep's shape depends on it): eager re-parenting
    // during the storm detach-thrashes and outdamages the overload.
    config.starve_limit = 30;
    if (defended) {
      // Oracle admission: sized so the steady established trickle is
      // admitted but a one-tick stampede of the whole crowd saturates
      // the window and spreads out through retry-after backoff.
      config.engine.admission.rate_limit =
          std::max(8.0, static_cast<double>(options.peers) * 0.1);
      config.engine.admission.window = 5.0;
      config.engine.admission.retry_after = 2.0;
    }
    for (NodeId id = established + 1; id <= peers; ++id)
      config.park_offline.push_back(id);
    if (storm)
      config.churn = [] {
        return std::make_unique<FlashCrowdChurn>(kStormRound);
      };
    const feed::LiveReport report = feed::run_live_dissemination(
        generate_workload(WorkloadKind::kBiUnCorr, params), config);

    // Established-subscriber deadline-miss rate: of the measured items
    // each established subscriber should have applied, the fraction that
    // never arrived by the horizon or arrived past its staleness budget.
    std::uint64_t on_time = 0;
    for (NodeId id = 1; id <= established; ++id) {
      const feed::LiveNodeStats& stats = report.nodes[id - 1];
      on_time += stats.deliveries - stats.late_deliveries;
    }
    const double expected = static_cast<double>(report.items_published) *
                            static_cast<double>(established);
    cell.miss_rate.add(
        expected <= 0.0
            ? 0.0
            : std::clamp(1.0 - static_cast<double>(on_time) / expected, 0.0,
                         1.0));
    cell.on_time.add(report.on_time_fraction);
    cell.shed += report.shed_items;
    cell.queue_drops += report.queue_drops;
    cell.starvation_detaches += report.starvation_detaches;
    cell.degraded_ticks += report.degraded_relay_ticks;
    cell.oracle_rejected += report.oracle_rejected;
    cell.oracle_stale_served += report.oracle_stale_served;
    cell.breaker_trips += report.oracle_breaker_trips;
    cell.audit_violations += report.audit_violations;
  }
  return cell;
}

int run(int argc, char** argv) {
  auto options = bench::BenchOptions::parse(argc, argv);
  std::cout << "# Overload sweep — " << kCrowdMultiple
            << "x flash-crowd join storm x relay budget x defenses"
               " (admission + shedding) off vs on; "
            << options.peers << " peers, " << options.trials
            << " trials per cell\n";

  bench::BenchJson bench_json("bench_overload", options);
  bench::TelemetryExport telemetry_export(options);
  std::uint64_t audit_violations = 0;

  Table table({"algorithm", "storm", "budget", "defenses", "miss rate",
               "shed", "queue drops", "re-parents", "degraded ticks",
               "rejected", "stale served", "breaker trips"});
  double miss_baseline = -1.0;
  double miss_storm_defended = -1.0;
  double miss_storm_undefended = -1.0;
  double sample_t = 0.0;
  for (auto algorithm : {AlgorithmKind::kGreedy, AlgorithmKind::kHybrid}) {
    for (bool storm : {false, true}) {
      for (std::uint32_t budget : {2U, 4U}) {
        for (bool defended : {false, true}) {
          const CellResult cell =
              run_cell(storm, defended, budget, algorithm, options);
          audit_violations += cell.audit_violations;
          telemetry_export.sample(sample_t += 1.0);
          table.add_row({to_string(algorithm), storm ? "10x" : "off",
                         std::to_string(budget), defended ? "on" : "off",
                         format_double(cell.miss_rate.median(), 3),
                         std::to_string(cell.shed),
                         std::to_string(cell.queue_drops),
                         std::to_string(cell.starvation_detaches),
                         std::to_string(cell.degraded_ticks),
                         std::to_string(cell.oracle_rejected),
                         std::to_string(cell.oracle_stale_served),
                         std::to_string(cell.breaker_trips)});
          if (algorithm == AlgorithmKind::kHybrid && budget == 2U) {
            if (!storm && defended) miss_baseline = cell.miss_rate.median();
            if (storm && defended)
              miss_storm_defended = cell.miss_rate.median();
            if (storm && !defended)
              miss_storm_undefended = cell.miss_rate.median();
          }
        }
      }
    }
  }
  bench::print_table(
      "flash-crowd sweep — established-subscriber deadline-miss rate"
      " (median)",
      table, options, "overload");

  bench_json.add_scalar("miss_rate_baseline", miss_baseline);
  bench_json.add_scalar("miss_rate_storm_defended", miss_storm_defended);
  bench_json.add_scalar("miss_rate_storm_undefended", miss_storm_undefended);
  bench_json.add_table("overload", table);
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
