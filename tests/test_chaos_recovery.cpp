// Async-engine chaos tests: latency spikes with a stale Oracle, and the
// recovery recorder's per-window damage accounting. The cases both
// schedulers must pass — reconvergence after the acceptance plan (zero
// orphans, zero latency-constraint violations once the last fault
// window closes), crash and partition recovery, and an empty plan being
// invisible (byte-identical runs) — live in test_conformance.
#include <gtest/gtest.h>

#include <memory>

#include "core/async_engine.hpp"
#include "fault/fault_injector.hpp"
#include "metrics/recovery.hpp"
#include "workload/constraints.hpp"

namespace lagover {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;

Population workload(std::size_t peers, std::uint64_t seed) {
  WorkloadParams params;
  params.peers = peers;
  params.seed = seed;
  return generate_workload(WorkloadKind::kBiUnCorr, params);
}

/// The acceptance-criteria plan: 20% message drop, a 10%-population
/// partition, and a full Oracle outage. The outage overlaps the
/// partition tail so partition-orphaned nodes hit a dead Oracle and
/// must lean on their partner caches / backoff until it lifts.
FaultPlan acceptance_plan() {
  FaultPlan plan;
  plan.add(FaultPlan::drop(30.0, 80.0, 0.2))
      .add(FaultPlan::partition(100.0, 150.0, 0.1))
      .add(FaultPlan::oracle_outage(140.0, 190.0));
  return plan;
}

void expect_fully_healthy(const Overlay& overlay) {
  EXPECT_TRUE(overlay.all_satisfied());
  for (NodeId id = 1; id < overlay.node_count(); ++id) {
    if (!overlay.online(id)) continue;
    EXPECT_TRUE(overlay.has_parent(id)) << "permanent orphan " << id;
    EXPECT_LE(overlay.delay_at(id), overlay.latency_of(id))
        << "constraint violation at " << id;
  }
  overlay.audit();
}

TEST(ChaosRecoveryTest, LatencySpikesAndStaleOracleStillConverge) {
  AsyncConfig config;
  config.seed = 47;
  FaultPlan plan;
  plan.add(FaultPlan::latency_spike(0.0, 100.0, 0.3, 4.0))
      .add(FaultPlan::oracle_staleness(0.0, 100.0, /*age=*/10.0));
  config.faults = std::make_shared<FaultInjector>(plan, 29);
  AsyncEngine engine(workload(60, 29), config);
  const auto converged = engine.run_until_converged(20000.0);
  ASSERT_TRUE(converged.has_value());
  expect_fully_healthy(engine.overlay());
}

TEST(ChaosRecoveryTest, RecorderTracksPerWindowDamage) {
  AsyncConfig config;
  config.seed = 51;
  const FaultPlan plan = acceptance_plan();
  config.faults = std::make_shared<FaultInjector>(plan, 31);
  AsyncEngine engine(workload(60, 31), config);
  RecoveryRecorder recorder(engine.overlay(), plan);
  engine.set_sampler(1.0, [&](SimTime t) { recorder.sample(t); });
  engine.run_for(600.0);
  const auto recoveries = recorder.window_recoveries();
  ASSERT_EQ(recoveries.size(), 3u);
  for (const auto& r : recoveries) {
    EXPECT_TRUE(r.recovered) << "window " << r.window;
    EXPECT_GE(r.time_to_reconverge, 0.0);
  }
  // The orphan series actually moved (damage was observed).
  double peak = 0.0;
  for (std::size_t i = 0; i < recorder.orphan_series().size(); ++i)
    peak = std::max(peak, recorder.orphan_series().value_at(i));
  EXPECT_GT(peak, 0.0);
}

}  // namespace
}  // namespace lagover
