// Unit tests for the chaos layer: FaultPlan window algebra, the
// FaultInjector's message/partition/crash decisions, the Network fault
// filter (drop / latency spike / duplicate), the FaultyOracle decorator
// (outage + stale views), and the NodeRuntime failure paths (lost
// interactions, lost source contacts, the partner-cache fallback during
// Oracle outages), driven through fault plans.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/async_engine.hpp"
#include "core/node_runtime.hpp"
#include "core/validator.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/faulty_oracle.hpp"
#include "net/network.hpp"
#include "workload/constraints.hpp"

namespace lagover {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;
using fault::FaultSpec;

TEST(FaultPlanTest, EmptyPlanIsInert) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(plan.active(0.0));
  EXPECT_TRUE(plan.effective(10.0).benign());
  EXPECT_DOUBLE_EQ(plan.last_end(), 0.0);
  EXPECT_FALSE(plan.has_oracle_faults());
}

TEST(FaultPlanTest, WindowsActivateOverHalfOpenIntervals) {
  FaultPlan plan;
  plan.add(FaultPlan::drop(10.0, 20.0, 0.5));
  EXPECT_FALSE(plan.active(9.99));
  EXPECT_TRUE(plan.active(10.0));
  EXPECT_TRUE(plan.active(19.99));
  EXPECT_FALSE(plan.active(20.0));
  EXPECT_DOUBLE_EQ(plan.effective(15.0).drop_probability, 0.5);
  EXPECT_DOUBLE_EQ(plan.last_end(), 20.0);
}

TEST(FaultPlanTest, OverlappingWindowsCombineByMax) {
  FaultPlan plan;
  plan.add(FaultPlan::drop(0.0, 100.0, 0.2))
      .add(FaultPlan::drop(50.0, 60.0, 0.8))
      .add(FaultPlan::oracle_outage(55.0, 70.0));
  EXPECT_DOUBLE_EQ(plan.effective(40.0).drop_probability, 0.2);
  EXPECT_DOUBLE_EQ(plan.effective(55.0).drop_probability, 0.8);
  EXPECT_TRUE(plan.effective(55.0).oracle_outage);
  EXPECT_FALSE(plan.effective(40.0).oracle_outage);
  EXPECT_TRUE(plan.has_oracle_faults());
}

TEST(FaultInjectorTest, EmptyPlanDeliversEverything) {
  FaultInjector injector{FaultPlan{}};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(injector.deliver(1, 2, static_cast<double>(i)));
    EXPECT_DOUBLE_EQ(injector.extra_latency(static_cast<double>(i)), 0.0);
    EXPECT_FALSE(injector.duplicate(static_cast<double>(i)));
    EXPECT_FALSE(injector.oracle_down(static_cast<double>(i)));
    EXPECT_FALSE(injector.crash_roll(1, static_cast<double>(i)));
  }
  EXPECT_EQ(injector.stats().messages_dropped, 0u);
  EXPECT_EQ(injector.stats().partition_blocks, 0u);
}

TEST(FaultInjectorTest, CertainDropInsideWindowOnly) {
  FaultPlan plan;
  plan.add(FaultPlan::drop(10.0, 20.0, 1.0));
  FaultInjector injector{plan};
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(injector.deliver(1, 2, 5.0));
    EXPECT_FALSE(injector.deliver(1, 2, 15.0));
    EXPECT_TRUE(injector.deliver(1, 2, 25.0));
  }
  EXPECT_EQ(injector.stats().messages_dropped, 50u);
}

TEST(FaultInjectorTest, ProbabilisticDropIsRoughlyCalibrated) {
  FaultPlan plan;
  plan.add(FaultPlan::drop(0.0, 1.0, 0.3));
  FaultInjector injector{plan, 99};
  int dropped = 0;
  for (int i = 0; i < 10000; ++i)
    if (!injector.deliver(1, 2, 0.5)) ++dropped;
  EXPECT_GT(dropped, 2700);
  EXPECT_LT(dropped, 3300);
}

TEST(FaultInjectorTest, PartitionIsolatesAConsistentMinority) {
  FaultPlan plan;
  plan.add(FaultPlan::partition(0.0, 10.0, 0.3));
  FaultInjector injector{plan, 7};
  const int n = 200;
  int isolated = 0;
  for (NodeId id = 1; id <= n; ++id)
    if (injector.partition_isolated(id, 5.0)) ++isolated;
  EXPECT_GT(isolated, n / 10);
  EXPECT_LT(isolated, n / 2);
  // The source is always on the majority side.
  EXPECT_FALSE(injector.partition_isolated(kSourceId, 5.0));
  // Membership is stable across queries within the window...
  for (NodeId id = 1; id <= n; ++id)
    EXPECT_EQ(injector.partition_isolated(id, 2.0),
              injector.partition_isolated(id, 9.0));
  // ...and nobody is isolated outside it.
  for (NodeId id = 1; id <= n; ++id)
    EXPECT_FALSE(injector.partition_isolated(id, 10.0));
}

TEST(FaultInjectorTest, PartitionBlocksCrossSideMessagesOnly) {
  FaultPlan plan;
  plan.add(FaultPlan::partition(0.0, 10.0, 0.4));
  FaultInjector injector{plan, 21};
  NodeId inside = kNoNode;
  NodeId outside = kNoNode;
  for (NodeId id = 1; id <= 100; ++id) {
    if (injector.partition_isolated(id, 1.0)) {
      if (inside == kNoNode) inside = id;
    } else if (outside == kNoNode) {
      outside = id;
    }
  }
  ASSERT_NE(inside, kNoNode);
  ASSERT_NE(outside, kNoNode);
  EXPECT_FALSE(injector.deliver(inside, kSourceId, 1.0));
  EXPECT_FALSE(injector.deliver(outside, inside, 1.0));
  EXPECT_TRUE(injector.deliver(outside, kSourceId, 1.0));
  EXPECT_GT(injector.stats().partition_blocks, 0u);
  // After the window everyone reaches everyone.
  EXPECT_TRUE(injector.deliver(inside, kSourceId, 10.0));
}

TEST(NetworkFaultFilterTest, DropsDelaysAndDuplicates) {
  Simulator sim;
  net::Network<int> network(sim, std::make_unique<net::ConstantLatency>(1.0),
                            1);
  std::vector<double> arrivals;
  network.register_node(2, [&](net::Address, const int&) {
    arrivals.push_back(sim.now());
  });

  FaultPlan plan;
  plan.add(FaultPlan::drop(0.0, 1.0, 1.0));
  plan.add(FaultPlan::latency_spike(1.0, 2.0, 1.0, 5.0));
  plan.add(FaultPlan::duplicates(2.0, 3.0, 1.0));
  FaultInjector injector{plan, 3};
  network.set_fault_filter(
      net::make_fault_filter(injector, [&sim] { return sim.now(); }));

  network.send(1, 2, 42);  // t=0: dropped
  sim.run_until(0.5);
  network.send(1, 2, 43);  // t=0.5: dropped
  sim.run_until(1.5);
  network.send(1, 2, 44);  // t=1.5: spiked, arrives at 7.5
  sim.run_until(2.5);
  network.send(1, 2, 45);  // t=2.5: duplicated, two arrivals at 3.5
  sim.run_until(4.0);
  network.send(1, 2, 46);  // t=4: clean, arrives at 5.0
  sim.run();

  ASSERT_EQ(arrivals.size(), 4u);
  EXPECT_DOUBLE_EQ(arrivals[0], 3.5);
  EXPECT_DOUBLE_EQ(arrivals[1], 3.5);
  EXPECT_DOUBLE_EQ(arrivals[2], 5.0);
  EXPECT_DOUBLE_EQ(arrivals[3], 7.5);
  EXPECT_EQ(network.fault_dropped(), 2u);
  EXPECT_EQ(network.fault_delayed(), 1u);
  EXPECT_EQ(network.fault_duplicated(), 1u);
  EXPECT_EQ(injector.stats().messages_dropped, 2u);
  EXPECT_EQ(injector.stats().latency_spikes, 1u);
  EXPECT_EQ(injector.stats().messages_duplicated, 1u);
}

TEST(NetworkFaultFilterTest, NoFilterMeansFaultFreePath) {
  Simulator sim;
  net::Network<int> network(sim, std::make_unique<net::ConstantLatency>(1.0),
                            1);
  int received = 0;
  network.register_node(2, [&](net::Address, const int&) { ++received; });
  network.send(1, 2, 1);
  sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(network.fault_dropped(), 0u);
  EXPECT_EQ(network.fault_duplicated(), 0u);
}

Population small_population() {
  Population p;
  p.source_fanout = 2;
  p.consumers = {
      NodeSpec{1, Constraints{2, 2}},
      NodeSpec{2, Constraints{2, 3}},
      NodeSpec{3, Constraints{1, 4}},
  };
  return p;
}

TEST(FaultyOracleTest, OutageWindowAnswersEmpty) {
  Overlay overlay(small_population());
  auto faults = std::make_shared<FaultInjector>(
      FaultPlan{}.add(FaultPlan::oracle_outage(10.0, 20.0)));
  double now = 0.0;
  fault::FaultyOracle oracle(make_oracle(OracleKind::kRandom), faults,
                             [&now] { return now; });
  Rng rng(5);
  now = 15.0;
  for (int i = 0; i < 20; ++i)
    EXPECT_FALSE(oracle.sample(1, overlay, rng).has_value());
  EXPECT_EQ(faults->stats().oracle_outage_queries, 20u);
  now = 25.0;
  EXPECT_TRUE(oracle.sample(1, overlay, rng).has_value());
}

TEST(FaultyOracleTest, StaleViewServesDepartedNodes) {
  Overlay overlay(small_population());
  auto faults = std::make_shared<FaultInjector>(
      FaultPlan{}.add(FaultPlan::oracle_staleness(0.0, 100.0, /*age=*/50.0)));
  double now = 1.0;
  fault::FaultyOracle oracle(make_oracle(OracleKind::kRandom), faults,
                             [&now] { return now; });
  Rng rng(5);
  // First query snapshots the all-online overlay.
  ASSERT_TRUE(oracle.sample(1, overlay, rng).has_value());
  // Everyone except the querier leaves; a live oracle would now starve,
  // but the stale view still hands out the departed nodes.
  overlay.set_offline(2);
  overlay.set_offline(3);
  now = 10.0;  // snapshot age 9 < 50: still served
  int stale_hits = 0;
  for (int i = 0; i < 20; ++i) {
    const auto sampled = oracle.sample(1, overlay, rng);
    ASSERT_TRUE(sampled.has_value());
    if (!overlay.online(*sampled)) ++stale_hits;
  }
  EXPECT_GT(stale_hits, 0);
  EXPECT_EQ(faults->stats().stale_oracle_refreshes, 1u);
}

TEST(FaultyOracleTest, SnapshotRefreshesOnceAgeExceeded) {
  Overlay overlay(small_population());
  auto faults = std::make_shared<FaultInjector>(
      FaultPlan{}.add(FaultPlan::oracle_staleness(0.0, 1000.0, /*age=*/5.0)));
  double now = 0.0;
  fault::FaultyOracle oracle(make_oracle(OracleKind::kRandom), faults,
                             [&now] { return now; });
  Rng rng(5);
  ASSERT_TRUE(oracle.sample(1, overlay, rng).has_value());
  overlay.set_offline(2);
  overlay.set_offline(3);
  now = 20.0;  // snapshot aged out: refreshed against the emptied overlay
  EXPECT_FALSE(oracle.sample(1, overlay, rng).has_value());
  EXPECT_EQ(faults->stats().stale_oracle_refreshes, 2u);
}

TEST(FaultyOracleTest, MaybeWrapOnlyWrapsWhenPlanHasOracleFaults) {
  auto no_oracle_faults = std::make_shared<FaultInjector>(
      FaultPlan{}.add(FaultPlan::drop(0.0, 10.0, 0.5)));
  auto inner = make_oracle(OracleKind::kRandomDelay);
  Oracle* inner_ptr = inner.get();
  auto unwrapped = fault::maybe_wrap_oracle(std::move(inner), no_oracle_faults,
                                            [] { return 0.0; });
  EXPECT_EQ(unwrapped.get(), inner_ptr);

  auto with_outage = std::make_shared<FaultInjector>(
      FaultPlan{}.add(FaultPlan::oracle_outage(0.0, 10.0)));
  auto wrapped = fault::maybe_wrap_oracle(
      make_oracle(OracleKind::kRandomDelay), with_outage, [] { return 0.0; });
  EXPECT_NE(dynamic_cast<fault::FaultyOracle*>(wrapped.get()), nullptr);
  EXPECT_EQ(wrapped->kind(), OracleKind::kRandomDelay);
}

/// Oracle returning a fixed partner, for scripting core failure paths.
class FixedOracle final : public Oracle {
 public:
  explicit FixedOracle(NodeId answer) : answer_(answer) {}
  OracleKind kind() const noexcept override { return OracleKind::kRandom; }

 protected:
  std::optional<NodeId> sample_impl(NodeId, const Overlay&, Rng&) override {
    if (answer_ == kNoNode) return std::nullopt;
    return answer_;
  }

 public:
  NodeId answer_;
};

/// A greedy runtime over small_population() under `plan` whose Oracle is
/// a FixedOracle answering node 2, recording every protocol event.
struct FaultHarness {
  explicit FaultHarness(int timeout_limit, const FaultPlan& plan = {})
      : config(make_config(plan)),
        runtime(small_population(), config, timeout_limit) {
    auto fixed = std::make_unique<FixedOracle>(2);
    oracle = fixed.get();
    runtime.set_oracle(std::move(fixed));
    runtime.trace_bus().subscribe([this](const TraceEvent& e) {
      if (!telemetry::structural(e.type)) events.push_back(e);
    });
  }

  static RuntimeConfig make_config(const FaultPlan& plan) {
    RuntimeConfig config;
    config.algorithm = AlgorithmKind::kGreedy;
    config.faults = std::make_shared<FaultInjector>(plan);
    return config;
  }

  RuntimeConfig config;
  NodeRuntime runtime;
  FixedOracle* oracle = nullptr;  ///< owned by the runtime's Oracle stack
  std::vector<TraceEvent> events;
};

TEST(NodeRuntimeFaultTest, LostInteractionCountsTowardTimeout) {
  // Every message sent in [0, 4) is lost; the transport heals at t = 4.
  FaultHarness h(/*timeout_limit=*/3,
                 FaultPlan{}.add(FaultPlan::drop(0.0, 4.0, 1.0)));
  const Overlay& overlay = h.runtime.overlay();
  Rng rng(3);

  const StepOutcome outcome = h.runtime.orphan_step(1, rng);
  EXPECT_EQ(outcome.partner, 2u);
  EXPECT_FALSE(outcome.delivered);
  EXPECT_FALSE(outcome.attached);
  EXPECT_FALSE(overlay.has_parent(1));
  ASSERT_EQ(h.events.size(), 1u);
  EXPECT_EQ(h.events[0].type, TraceEventType::kInteractionFailed);

  // Three lost interactions exhaust the timeout; the 4th step goes for
  // the source — whose contact is also lost, so the referral persists.
  h.runtime.advance_to(1.0);
  h.runtime.orphan_step(1, rng);
  h.runtime.advance_to(2.0);
  h.runtime.orphan_step(1, rng);
  h.runtime.advance_to(3.0);
  const StepOutcome source_try = h.runtime.orphan_step(1, rng);
  EXPECT_EQ(source_try.partner, kSourceId);
  EXPECT_FALSE(source_try.delivered);
  EXPECT_EQ(h.events.back().type, TraceEventType::kSourceContactFailed);

  // Transport heals: the pending source referral fires immediately.
  h.runtime.advance_to(4.0);
  const StepOutcome healed = h.runtime.orphan_step(1, rng);
  EXPECT_EQ(healed.partner, kSourceId);
  EXPECT_TRUE(healed.delivered);
  EXPECT_TRUE(healed.attached);
  EXPECT_EQ(overlay.parent(1), kSourceId);
}

TEST(NodeRuntimeFaultTest, OfflinePartnerFromStaleViewFailsCleanly) {
  FaultHarness h(10);
  Rng rng(3);
  h.runtime.overlay().set_offline(2);  // the oracle (stale) still returns 2
  const StepOutcome outcome = h.runtime.orphan_step(1, rng);
  EXPECT_EQ(outcome.partner, 2u);
  EXPECT_FALSE(outcome.delivered);
  EXPECT_FALSE(h.runtime.overlay().has_parent(1));
}

TEST(NodeRuntimeFaultTest, PartnerCacheBridgesOracleOutage) {
  // The Oracle is dark during [1, 2).
  FaultHarness h(10, FaultPlan{}.add(FaultPlan::oracle_outage(1.0, 2.0)));
  Overlay& overlay = h.runtime.overlay();
  Rng rng(3);

  // Node 3 interacts with node 2 once: cache primed (3 may well attach
  // under 2 — irrelevant here, the outage strikes after a detach).
  h.runtime.orphan_step(3, rng);
  ASSERT_FALSE(h.runtime.recent_partners(3).empty());
  EXPECT_EQ(h.runtime.recent_partners(3)[0], 2u);

  // Node 3 is orphaned again while the Oracle is dark. Without the
  // cache it would starve; with it, it re-interacts with node 2.
  if (overlay.has_parent(3)) overlay.detach(3);
  h.oracle->answer_ = kNoNode;
  h.runtime.advance_to(1.0);
  h.events.clear();
  const StepOutcome outcome = h.runtime.orphan_step(3, rng);
  EXPECT_EQ(outcome.partner, 2u);
  EXPECT_TRUE(outcome.delivered);
  ASSERT_FALSE(h.events.empty());
  EXPECT_EQ(h.events.back().type, TraceEventType::kInteraction);

  // Outside outage windows an empty Oracle starves the node exactly as
  // before (the paper's semantics are preserved).
  h.runtime.advance_to(2.0);
  if (overlay.has_parent(3)) overlay.detach(3);
  h.events.clear();
  h.runtime.orphan_step(3, rng);
  ASSERT_FALSE(h.events.empty());
  EXPECT_EQ(h.events.back().type, TraceEventType::kOracleEmpty);
}

// --- seeded end-to-end regressions ------------------------------------

TEST(FaultRegressionTest, OracleOutageDuringActivePartition) {
  // Regression: an Oracle outage overlapping an active partition. The
  // partitioned minority loses its parents AND cannot ask the Oracle
  // for new ones — nodes must ride the partner cache / failover ladder
  // through the dark window, then fully recover once both faults lift.
  WorkloadParams params;
  params.peers = 40;
  params.seed = 31;
  auto plan = fault::FaultPlan{}
                  .add(FaultPlan::partition(20.0, 60.0, 0.3))
                  .add(FaultPlan::oracle_outage(30.0, 50.0));
  AsyncConfig config;
  config.seed = 31;
  config.faults = std::make_shared<FaultInjector>(plan, 31);
  AsyncEngine engine(generate_workload(WorkloadKind::kBiUnCorr, params),
                     config);
  const double fraction = engine.run_for(220.0);
  // Both faults actually engaged, simultaneously at t=40.
  EXPECT_GT(engine.faults()->stats().partition_blocks, 0u);
  EXPECT_GT(engine.faults()->stats().oracle_outage_queries, 0u);
  // Full recovery after the windows close, with a clean audit.
  EXPECT_DOUBLE_EQ(fraction, 1.0);
  EXPECT_TRUE(engine.overlay().all_satisfied());
  EXPECT_EQ(engine.audit_violations(), 0u);
}

TEST(FaultRegressionTest, DuplicateDeliveryRacingACrash) {
  // Regression: the recipient of a duplicated message crashes while
  // both copies are in flight. The copies must be dropped dead (not
  // delivered to the re-incarnated node, not wedge the kernel), and a
  // post-rejoin send must flow normally — including its own duplicate.
  Simulator sim;
  net::Network<int> network(sim, std::make_unique<net::ConstantLatency>(1.0),
                            17);
  std::vector<int> arrivals;
  const auto handler = [&](net::Address, const int& value) {
    arrivals.push_back(value);
  };
  network.register_node(2, handler);

  FaultPlan plan;
  plan.add(FaultPlan::duplicates(0.0, 10.0, 1.0));
  FaultInjector injector{plan, 17};
  network.set_fault_filter(
      net::make_fault_filter(injector, [&sim] { return sim.now(); }));

  network.send(1, 2, 7);  // t=0: duplicated, both copies due at t=1.0
  sim.run_until(0.5);
  network.deregister_node(2);  // crash with both copies in flight
  sim.run_until(2.0);          // both arrive dead and are dropped
  EXPECT_TRUE(arrivals.empty());
  EXPECT_EQ(network.dropped(), 2u);

  network.register_node(2, handler);  // rejoin
  network.send(1, 2, 8);              // t=2: duplicated, arrives twice
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 8);
  EXPECT_EQ(arrivals[1], 8);
  EXPECT_EQ(network.fault_duplicated(), 2u);
  EXPECT_EQ(injector.stats().messages_duplicated, 2u);
}

TEST(FaultRegressionTest, CrashStormKeepsEpochAuditClean) {
  // Regression companion: nodes crash and re-incarnate mid-construction;
  // no child may end the run holding a lease on a stale incarnation and
  // the overlay must reconverge once the storm passes.
  WorkloadParams params;
  params.peers = 40;
  params.seed = 17;
  auto plan = fault::FaultPlan{}.add(
      FaultPlan::crashes(10.0, 60.0, 0.02, /*downtime=*/4.0));
  AsyncConfig config;
  config.seed = 17;
  config.faults = std::make_shared<FaultInjector>(plan, 17);
  AsyncEngine engine(generate_workload(WorkloadKind::kBiUnCorr, params),
                     config);
  const double fraction = engine.run_for(260.0);
  EXPECT_GT(engine.faults()->stats().crashes, 0u);
  EXPECT_GT(engine.epochs().bumps(), 0u);  // re-incarnations happened
  EXPECT_DOUBLE_EQ(fraction, 1.0);
  EXPECT_EQ(engine.audit_violations(), 0u);
  const EpochAudit audit = audit_epochs(engine.overlay(), engine.epochs());
  EXPECT_TRUE(audit.ok()) << audit.to_string();
}

TEST(NodeRuntimeFaultTest, ResetClearsPartnerCache) {
  FaultHarness h(10);
  Rng rng(3);
  h.runtime.orphan_step(3, rng);
  ASSERT_FALSE(h.runtime.recent_partners(3).empty());
  h.runtime.leave(3);
  EXPECT_TRUE(h.runtime.recent_partners(3).empty());
}

}  // namespace
}  // namespace lagover
