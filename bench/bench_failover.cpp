// Failover sweep: fixed-miss vs phi-accrual failure detection, with and
// without the local failover ladder, under a crash + message-drop plan.
// Per policy cell the table reports mean orphan time (crash/suspicion ->
// re-attach, the headline metric), mean detection latency (parent crash
// -> the orphaned child's first own orphan-loop step), the false
// -positive rate of suspicions (suspected parent was actually alive),
// epoch fences, and ladder attaches. Expected shape: phi-accrual cuts
// mean orphan time versus the fixed threshold at a comparable
// false-positive rate, and the ladder cuts it further by skipping the
// Oracle round trip; epoch fencing keeps stale attachments at zero
// throughout (asserted via audit_epochs every sample).
#include <algorithm>
#include <iostream>
#include <memory>

#include "bench/bench_util.hpp"
#include "core/async_engine.hpp"
#include "core/snapshot.hpp"
#include "core/validator.hpp"
#include "fault/fault_injector.hpp"
#include "metrics/failover.hpp"

namespace lagover {
namespace {

struct Policy {
  const char* name;
  health::DetectionPolicy detection;
  health::FailoverPolicy failover;
};

constexpr Policy kPolicies[] = {
    {"fixed+oracle", health::DetectionPolicy::kFixedMisses,
     health::FailoverPolicy::kOracleRejoin},
    {"fixed+ladder", health::DetectionPolicy::kFixedMisses,
     health::FailoverPolicy::kLadder},
    {"phi+oracle", health::DetectionPolicy::kPhiAccrual,
     health::FailoverPolicy::kOracleRejoin},
    {"phi+ladder", health::DetectionPolicy::kPhiAccrual,
     health::FailoverPolicy::kLadder},
};

/// Crash storms plus a lossy window: the drop window exercises the
/// detectors (silence without death -> false-positive pressure), the
/// crash windows exercise detection latency, failover, and fencing.
fault::FaultPlan failover_plan() {
  fault::FaultPlan plan;
  plan.add(fault::FaultPlan::crashes(40.0, 90.0, 0.02, 6.0))
      .add(fault::FaultPlan::drop(110.0, 150.0, 0.25))
      .add(fault::FaultPlan::crashes(170.0, 220.0, 0.03, 8.0));
  return plan;
}

int run(int argc, char** argv) {
  auto options = bench::BenchOptions::parse(argc, argv);
  const double horizon =
      std::max(300.0, static_cast<double>(options.max_rounds));

  std::cout << "# Failover sweep — crash storms [40,90) p=0.02 and "
               "[170,220) p=0.03, drop window [110,150) p=0.25; "
            << options.peers << " peers, " << options.trials
            << " trials per cell, horizon " << horizon << "\n";

  bench::BenchJson bench_json("bench_failover", options);
  bench::TelemetryExport telemetry_export(options);
  Table table({"policy", "mean orphan t", "p90 orphan t", "mean detect t",
               "fp rate", "suspicions", "fences", "ladder", "stale edges"});
#ifdef LAGOVER_AUDIT
  // Paper-invariant audit (docs/STATIC_ANALYSIS.md): any violation
  // across any policy cell fails the bench. Key emitted only in audit
  // builds so release bench JSON stays byte-identical.
  std::uint64_t audit_violations = 0;
#endif

  for (const Policy& policy : kPolicies) {
    Sample orphan_times;
    Sample detection_latencies;
    double suspicions = 0.0;
    double false_suspicions = 0.0;
    std::uint64_t fences = 0;
    std::uint64_t ladder_attaches = 0;
    std::uint64_t stale_edges = 0;

    for (int trial = 0; trial < options.trials; ++trial) {
      const std::uint64_t seed =
          options.seed + static_cast<std::uint64_t>(trial) * 7919;
      WorkloadParams params;
      params.peers = options.peers;
      params.seed = seed;

      AsyncConfig config;
      config.seed = seed;
      config.health.detection = policy.detection;
      config.health.failover = policy.failover;
      config.faults = std::make_shared<fault::FaultInjector>(
          failover_plan(), seed ^ 0xfa170);
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
        flight->set_fault_plan(failover_plan().to_string());
        flight_sub = attach_flight_recorder(engine.audit_bus(), *flight);
      }
      metrics::FailoverRecorder recorder(engine.overlay().node_count());
      recorder.subscribe(engine.trace_bus());
      // Epoch-consistency audit on a steady cadence: a single stale
      // -epoch attachment anywhere in the run fails the bench.
      engine.set_sampler(5.0, [&](SimTime t) {
        const EpochAudit audit =
            audit_epochs(engine.overlay(), engine.epochs());
        stale_edges += audit.stale_edges.size();
        if (!audit.acyclic) {
          std::cerr << "FATAL: cycle detected\n";
          std::abort();
        }
        if (flight != nullptr)
          flight->note_snapshot(t, to_snapshot(engine.overlay()));
        telemetry_export.sample(t);
      });
      engine.run_for(horizon);
      if (flight != nullptr) engine.audit_bus().unsubscribe(flight_sub);
#ifdef LAGOVER_AUDIT
      audit_violations += engine.audit_violations();
#endif

      orphan_times.add_all(recorder.orphan_time().values());
      detection_latencies.add_all(recorder.detection_latency().values());
      suspicions += static_cast<double>(recorder.suspicions());
      false_suspicions += static_cast<double>(recorder.false_suspicions());
      fences += engine.epochs().fences();
      ladder_attaches += recorder.failover_attaches();
    }

    const double fp_rate =
        suspicions == 0.0 ? 0.0 : false_suspicions / suspicions;
    table.add_row(
        {policy.name,
         orphan_times.empty() ? "-" : format_double(orphan_times.mean(), 2),
         orphan_times.empty() ? "-"
                              : format_double(orphan_times.quantile(0.9), 2),
         detection_latencies.empty()
             ? "-"
             : format_double(detection_latencies.mean(), 2),
         format_double(fp_rate, 3), format_double(suspicions, 0),
         std::to_string(fences), std::to_string(ladder_attaches),
         std::to_string(stale_edges)});

    const std::string prefix = std::string(policy.name);
    bench_json.add_scalar(prefix + ".mean_orphan_time",
                          orphan_times.empty() ? -1.0 : orphan_times.mean());
    bench_json.add_scalar(
        prefix + ".mean_detection_latency",
        detection_latencies.empty() ? -1.0 : detection_latencies.mean());
    bench_json.add_scalar(prefix + ".false_positive_rate", fp_rate);
    bench_json.add_count(prefix + ".fences", fences);
    bench_json.add_count(prefix + ".ladder_attaches", ladder_attaches);
    bench_json.add_count(prefix + ".stale_edges", stale_edges);
  }

  bench::print_table("failure detection / failover policy sweep", table,
                     options, "failover");
  bench_json.add_table("failover", table);
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
