// Feed-capacity tests: CapacityConfig budget arithmetic (squeeze
// scaling, flooring, the unlimited sentinel), the empty() normalization
// contract (a squeezes-only config is still empty — squeezes are inert
// without a budget), byte-identity of live and lossy dissemination when
// the capacity config is empty, and the defended/undefended split — a
// binding budget sheds with the policy on, drops queues with it off,
// and only the shedding ladder ever escalates starvation.
#include <gtest/gtest.h>

#include <vector>

#include "core/engine.hpp"
#include "feed/live.hpp"
#include "feed/overload.hpp"
#include "feed/reliability.hpp"
#include "workload/constraints.hpp"

namespace lagover {
namespace {

using feed::CapacityConfig;
using feed::CapacitySqueeze;
using feed::LiveConfig;
using feed::LiveReport;
using feed::LossyConfig;
using feed::LossyReport;

Population workload(std::size_t peers, std::uint64_t seed) {
  WorkloadParams params;
  params.peers = peers;
  params.seed = seed;
  return generate_workload(WorkloadKind::kBiUnCorr, params);
}

// --- budget arithmetic ------------------------------------------------

TEST(CapacityConfigTest, BudgetScalesInsideSqueezeWindows) {
  CapacityConfig config;
  config.relay_budget = 8;
  config.squeezes.push_back({10.0, 20.0, 0.5});
  EXPECT_EQ(config.budget_at(5.0), 8u);
  EXPECT_EQ(config.budget_at(10.0), 4u);   // start is inclusive
  EXPECT_EQ(config.budget_at(19.99), 4u);
  EXPECT_EQ(config.budget_at(20.0), 8u);   // end is exclusive
}

TEST(CapacityConfigTest, OverlappingSqueezesCompoundAndFloorAtOne) {
  CapacityConfig config;
  config.relay_budget = 8;
  config.squeezes.push_back({0.0, 100.0, 0.5});
  config.squeezes.push_back({50.0, 100.0, 0.1});
  EXPECT_EQ(config.budget_at(25.0), 4u);
  // 8 * 0.5 * 0.1 = 0.4 -> floored at 1: a squeezed relay trickles,
  // it does not halt.
  EXPECT_EQ(config.budget_at(75.0), 1u);
}

TEST(CapacityConfigTest, ZeroBudgetMeansUnlimitedEvenUnderSqueeze) {
  CapacityConfig config;
  config.squeezes.push_back({0.0, 100.0, 0.1});
  EXPECT_EQ(config.budget_at(50.0), 0u);
}

TEST(CapacityConfigTest, EmptyIgnoresPolicyAndSqueezes) {
  CapacityConfig config;
  EXPECT_TRUE(config.empty());
  config.shedding = true;
  config.squeezes.push_back({0.0, 10.0, 0.5});
  EXPECT_TRUE(config.empty()) << "squeezes are inert without a budget";
  config.relay_budget = 1;
  EXPECT_FALSE(config.empty());
  config.relay_budget = 0;
  config.queue_limit = 1;
  EXPECT_FALSE(config.empty());
}

// --- live dissemination -----------------------------------------------

LiveConfig live_config(std::uint64_t seed) {
  LiveConfig config;
  config.engine.seed = seed;
  config.publish_every = 2;
  config.warmup_rounds = 30;
  config.measured_rounds = 120;
  return config;
}

void expect_same_report(const LiveReport& a, const LiveReport& b) {
  EXPECT_EQ(a.items_published, b.items_published);
  EXPECT_EQ(a.total_deliveries, b.total_deliveries);
  EXPECT_EQ(a.total_late, b.total_late);
  EXPECT_DOUBLE_EQ(a.on_time_fraction, b.on_time_fraction);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].node, b.nodes[i].node);
    EXPECT_EQ(a.nodes[i].deliveries, b.nodes[i].deliveries);
    EXPECT_EQ(a.nodes[i].late_deliveries, b.nodes[i].late_deliveries);
    EXPECT_DOUBLE_EQ(a.nodes[i].max_staleness, b.nodes[i].max_staleness);
  }
}

TEST(LiveCapacityTest, SqueezesOnlyConfigIsByteIdentical) {
  const Population population = workload(40, 17);
  const LiveReport plain =
      run_live_dissemination(population, live_config(17));

  // Squeezes without a budget are inert — the config is empty() and the
  // run must be byte-identical to the capacity-free path.
  LiveConfig wired = live_config(17);
  wired.capacity.shedding = true;
  wired.capacity.squeezes.push_back({10.0, 40.0, 0.25});
  const LiveReport squeezed = run_live_dissemination(population, wired);

  expect_same_report(plain, squeezed);
  EXPECT_EQ(squeezed.shed_items, 0u);
  EXPECT_EQ(squeezed.queue_drops, 0u);
  EXPECT_EQ(squeezed.starvation_detaches, 0u);
}

TEST(LiveCapacityTest, BindingBudgetShedsWithThePolicyOn) {
  const Population population = workload(60, 19);
  LiveConfig config = live_config(19);
  config.publish_every = 1;
  config.capacity.relay_budget = 1;
  config.capacity.shedding = true;
  const LiveReport report = run_live_dissemination(population, config);
  EXPECT_GT(report.shed_items, 0u);
  EXPECT_GT(report.degraded_relay_ticks, 0u);
  // Shed items are deferred, not destroyed — no bounded queue here.
  EXPECT_EQ(report.queue_drops, 0u);
}

TEST(LiveCapacityTest, BoundedQueueDropsOldestWhenFull) {
  const Population population = workload(60, 19);
  LiveConfig config = live_config(19);
  config.publish_every = 1;
  config.capacity.relay_budget = 1;
  config.capacity.queue_limit = 2;
  config.capacity.shedding = true;
  const LiveReport report = run_live_dissemination(population, config);
  EXPECT_GT(report.queue_drops, 0u);
  // max_backlog gauges the depth *before* the trim, so it may exceed
  // the limit transiently — but the trim must be observable.
  EXPECT_GT(report.max_backlog, 0u);
}

TEST(LiveCapacityTest, UndefendedBudgetNeverEscalatesStarvation) {
  const Population population = workload(60, 19);
  LiveConfig config = live_config(19);
  config.publish_every = 1;
  config.capacity.relay_budget = 1;
  config.capacity.shedding = false;
  const LiveReport report = run_live_dissemination(population, config);
  // The budget binds either way, but escalation and degraded-fanout are
  // shedding-ladder policy — the undefended run must not show them.
  EXPECT_EQ(report.starvation_detaches, 0u);
  EXPECT_EQ(report.degraded_relay_ticks, 0u);
}

// --- lossy dissemination ----------------------------------------------

TEST(LossyCapacityTest, EmptyCapacityIsByteIdentical) {
  const Population population = workload(40, 23);
  EngineConfig engine_config;
  engine_config.seed = 23;
  Engine engine(population, engine_config);
  ASSERT_TRUE(engine.run_until_converged(600).has_value());

  LossyConfig plain;
  plain.base.seed = 23;
  plain.push_loss = 0.15;
  plain.enable_recovery = true;
  const LossyReport base =
      run_lossy_dissemination(engine.overlay(), plain, 60.0);

  LossyConfig wired = plain;
  wired.base.capacity.shedding = true;
  wired.base.capacity.squeezes.push_back({5.0, 25.0, 0.5});
  const LossyReport squeezed =
      run_lossy_dissemination(engine.overlay(), wired, 60.0);

  EXPECT_EQ(base.push_deliveries, squeezed.push_deliveries);
  EXPECT_EQ(base.lost_pushes, squeezed.lost_pushes);
  EXPECT_EQ(base.recovered_deliveries, squeezed.recovered_deliveries);
  EXPECT_EQ(base.applications, squeezed.applications);
  EXPECT_DOUBLE_EQ(base.delivery_ratio, squeezed.delivery_ratio);
  EXPECT_EQ(squeezed.shed_pushes, 0u);
}

TEST(LossyCapacityTest, ShedPushesStayRecoverable) {
  const Population population = workload(40, 23);
  EngineConfig engine_config;
  engine_config.seed = 23;
  Engine engine(population, engine_config);
  ASSERT_TRUE(engine.run_until_converged(600).has_value());

  LossyConfig shed;
  shed.base.seed = 23;
  shed.base.capacity.relay_budget = 1;
  shed.base.capacity.shedding = true;
  shed.push_loss = 0.1;
  shed.enable_recovery = true;
  shed.repair = feed::RepairMode::kNack;
  // A binding queue bound: each poll hands a relay ~4 items, which it
  // forwards at once into a one-slot pending queue per child.
  LossyConfig queue = shed;
  queue.base.capacity = CapacityConfig{};
  queue.base.capacity.queue_limit = 1;
  queue.base.source.publish_period = 0.25;
  for (const LossyConfig& config : {shed, queue}) {
    const LossyReport report =
        run_lossy_dissemination(engine.overlay(), config, 60.0);
    // Each config binds one limit, and only that limit refuses pushes.
    EXPECT_EQ(report.shed_pushes > 0, config.base.capacity.relay_budget != 0);
    EXPECT_EQ(report.queue_drops > 0, config.base.capacity.queue_limit != 0);
    EXPECT_GT(report.recovered_deliveries, 0u);
    EXPECT_DOUBLE_EQ(report.delivery_ratio, 1.0);
    // Dedup invariant survives the capacity layer.
    EXPECT_EQ(report.applications,
              report.push_deliveries + report.recovered_deliveries);
  }
}

}  // namespace
}  // namespace lagover
