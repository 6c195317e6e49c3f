// Chaos sweep: how fast does the overlay heal as fault intensity grows?
// Every trial runs the canonical chaos plan — a message-drop window, a
// 10%-population partition, and an Oracle outage overlapping the
// partition tail — under the event-driven engine, sweeping the drop
// probability. Reported per (algorithm, intensity): how many trials
// reconverged (zero orphans, zero latency-constraint violations after
// the last window), the median time-to-reconverge from the last window
// end, the median peak orphan count, and the fault volume actually
// injected. Expected shape: time-to-reconverge grows with intensity,
// recovery rate stays 100% — faults delay the overlay, they do not
// wedge it.
#include <algorithm>
#include <iostream>
#include <memory>

#include "bench/bench_util.hpp"
#include "core/async_engine.hpp"
#include "core/snapshot.hpp"
#include "core/validator.hpp"
#include "fault/fault_injector.hpp"
#include "metrics/recovery.hpp"

namespace lagover {
namespace {

constexpr double kDropIntensities[] = {0.0, 0.1, 0.2, 0.4};

fault::FaultPlan chaos_plan(double drop_probability) {
  fault::FaultPlan plan;
  if (drop_probability > 0.0)
    plan.add(fault::FaultPlan::drop(30.0, 80.0, drop_probability));
  plan.add(fault::FaultPlan::partition(100.0, 150.0, 0.1))
      .add(fault::FaultPlan::oracle_outage(140.0, 190.0));
  return plan;
}

int run(int argc, char** argv) {
  auto options = bench::BenchOptions::parse(argc, argv);
  const double horizon =
      std::max(400.0, static_cast<double>(options.max_rounds));

  std::cout << "# Chaos sweep — canonical plan: drop [30,80), 10% "
               "partition [100,150), Oracle outage [140,190); "
            << options.peers << " peers, " << options.trials
            << " trials per cell, horizon " << horizon << "\n";

  bench::BenchJson bench_json("bench_chaos", options);
  bench::TelemetryExport telemetry_export(options);
  int total_recovered = 0;
  int total_cells = 0;
  Sample all_ttr;
#ifdef LAGOVER_AUDIT
  // Paper-invariant audit (docs/STATIC_ANALYSIS.md): every engine
  // audits once per sim-time unit; any violation anywhere in the sweep
  // fails the bench. The key is only emitted in audit builds so
  // release bench JSON stays byte-identical.
  std::uint64_t audit_violations = 0;
#endif

  Table table({"algorithm", "drop prob", "recovered", "median ttr",
               "peak orphans", "median drops"});
  for (auto algorithm : {AlgorithmKind::kGreedy, AlgorithmKind::kHybrid}) {
    for (double drop : kDropIntensities) {
      Sample ttr;
      Sample peaks;
      Sample drops;
      int recovered = 0;
      for (int trial = 0; trial < options.trials; ++trial) {
        const std::uint64_t seed =
            options.seed + static_cast<std::uint64_t>(trial) * 7919;
        WorkloadParams params;
        params.peers = options.peers;
        params.seed = seed;
        const fault::FaultPlan plan = chaos_plan(drop);
        AsyncConfig config;
        config.algorithm = algorithm;
        config.seed = seed;
        config.faults =
            std::make_shared<fault::FaultInjector>(plan, seed ^ 0xc4a05);
        AsyncEngine engine(generate_workload(WorkloadKind::kBiUnCorr, params),
                           config);
#ifdef LAGOVER_AUDIT
        engine.audit_bus().subscribe([](const InvariantViolation& v) {
          std::cerr << "AUDIT " << to_string(v.invariant) << " cause="
                    << v.cause << " node=" << v.node << " " << v.detail
                    << "\n";
        });
#endif
        telemetry::FlightRecorder* flight = telemetry_export.recorder();
        AuditBus::SubscriptionId flight_sub = 0;
        if (flight != nullptr) {
          flight->set_fault_plan(plan.to_string());
          flight_sub = attach_flight_recorder(engine.audit_bus(), *flight);
        }
        RecoveryRecorder recorder(engine.overlay(), plan);
        engine.set_sampler(1.0, [&](SimTime t) {
          recorder.sample(t);
          if (flight != nullptr)
            flight->note_snapshot(t, to_snapshot(engine.overlay()));
          telemetry_export.sample(t);
        });
        engine.run_for(horizon);
        if (flight != nullptr)
          engine.audit_bus().unsubscribe(flight_sub);
#ifdef LAGOVER_AUDIT
        audit_violations += engine.audit_violations();
#endif
        const double t = recorder.final_time_to_reconverge();
        if (t >= 0.0 && recorder.healthy_at_end()) {
          ++recovered;
          ttr.add(t);
        }
        // Peak orphans DURING the fault windows (the initial build-out,
        // when everyone is briefly an orphan, would drown the signal).
        double peak = 0.0;
        for (const auto& w : recorder.window_recoveries())
          peak = std::max(peak, static_cast<double>(w.peak_orphans));
        peaks.add(peak);
        drops.add(
            static_cast<double>(engine.faults()->stats().messages_dropped));
      }
      table.add_row({to_string(algorithm), format_double(drop, 2),
                     std::to_string(recovered) + "/" +
                         std::to_string(options.trials),
                     ttr.empty() ? "DNR" : format_double(ttr.median(), 1),
                     peaks.empty() ? "-" : format_double(peaks.median(), 1),
                     drops.empty() ? "-" : format_double(drops.median(), 0)});
      total_recovered += recovered;
      total_cells += options.trials;
      all_ttr.add_all(ttr.values());
    }
  }
  bench::print_table("reconvergence under swept fault intensity", table,
                     options, "chaos");
  bench_json.add_count("recovered_trials",
                       static_cast<std::uint64_t>(total_recovered));
  bench_json.add_count("total_trials",
                       static_cast<std::uint64_t>(total_cells));
  bench_json.add_scalar("recovery_rate",
                        total_cells == 0
                            ? 1.0
                            : static_cast<double>(total_recovered) /
                                  static_cast<double>(total_cells));
  bench_json.add_scalar("median_time_to_reconverge",
                        all_ttr.empty() ? -1.0 : all_ttr.median());
  bench_json.add_table("chaos", table);
#ifdef LAGOVER_AUDIT
  bench_json.add_count("audit_violations", audit_violations);
  if (audit_violations != 0) {
    std::cerr << "AUDIT FAILED: " << audit_violations
              << " invariant violation(s) across the sweep\n";
    return 1;
  }
  std::cout << "# audit: clean (" << audit_violations << " violations)\n";
#endif
  telemetry_export.finish(bench_json);
  bench_json.write(options);
  return 0;
}

}  // namespace
}  // namespace lagover

int main(int argc, char** argv) { return lagover::run(argc, argv); }
