// Tests for the feed layer: source publication/pull semantics, staleness
// tracking, and end-to-end dissemination over a constructed LagOver.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/engine.hpp"
#include "core/sufficiency.hpp"
#include "feed/dissemination.hpp"
#include "feed/feed.hpp"
#include "feed/reliability.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "workload/constraints.hpp"

namespace lagover {
namespace {

TEST(FeedSourceTest, PeriodicPublication) {
  Simulator sim;
  feed::SourceConfig config;
  config.publish_period = 2.0;
  feed::FeedSource source(sim, config);
  source.start();
  sim.run_until(10.0);
  EXPECT_EQ(source.published(), 5u);
  for (std::size_t i = 0; i < source.items().size(); ++i) {
    EXPECT_EQ(source.items()[i].seq, i + 1);
    EXPECT_DOUBLE_EQ(source.items()[i].published_at, 2.0 * (i + 1));
  }
}

TEST(FeedSourceTest, PoissonPublicationHasRequestedMeanRate) {
  Simulator sim;
  feed::SourceConfig config;
  config.schedule = feed::PublishSchedule::kPoisson;
  config.publish_period = 2.0;
  config.seed = 3;
  feed::FeedSource source(sim, config);
  source.start();
  sim.run_until(10000.0);
  EXPECT_NEAR(static_cast<double>(source.published()), 5000.0, 300.0);
}

TEST(FeedSourceTest, PullReturnsOnlyNewItemsAndCountsRequests) {
  Simulator sim;
  feed::FeedSource source(sim, feed::SourceConfig{});
  source.start();
  sim.run_until(10.0);  // 3 items at period 3
  auto fresh = source.pull(0);
  EXPECT_EQ(fresh.size(), 3u);
  fresh = source.pull(3);
  EXPECT_TRUE(fresh.empty());
  EXPECT_EQ(source.requests(), 2u);
  EXPECT_EQ(source.empty_requests(), 1u);
  fresh = source.pull(1);
  EXPECT_EQ(fresh.size(), 2u);
  EXPECT_EQ(fresh.front().seq, 2u);
}

TEST(StalenessTrackerTest, TracksMaxAndMean) {
  feed::StalenessTracker tracker(3);
  feed::FeedItem item{1, 10.0};
  tracker.record(1, item, 11.0);
  tracker.record(1, item, 13.0);  // same item seen again (re-push)
  EXPECT_EQ(tracker.items_received(1), 2u);
  EXPECT_DOUBLE_EQ(tracker.max_staleness(1), 3.0);
  EXPECT_DOUBLE_EQ(tracker.mean_staleness(1), 2.0);
  EXPECT_EQ(tracker.items_received(2), 0u);
}

TEST(DisseminationTest, SatisfiedOverlayMeetsEveryStalenessBudget) {
  // Build a converged LagOver, then actually disseminate items over it:
  // no connected node may observe staleness above its constraint.
  WorkloadParams params;
  params.peers = 60;
  params.seed = 5;
  const Population population =
      generate_workload(WorkloadKind::kBiUnCorr, params);
  EngineConfig config;
  config.seed = 9;
  Engine engine(population, config);
  ASSERT_TRUE(engine.run_until_converged(3000).has_value());

  feed::DisseminationConfig dconfig;
  dconfig.source.publish_period = 2.5;
  const auto report = feed::run_dissemination(engine.overlay(), dconfig,
                                              /*duration=*/200.0);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_EQ(report.nodes.size(), 60u);
  for (const auto& node : report.nodes) {
    EXPECT_GT(node.items, 0u) << "node " << node.node << " starved";
    EXPECT_TRUE(node.constraint_met);
  }
}

TEST(DisseminationTest, SourceLoadIsPollersOverPeriod) {
  WorkloadParams params;
  params.peers = 60;
  params.seed = 6;
  const Population population = generate_workload(WorkloadKind::kRand, params);
  EngineConfig config;
  config.seed = 10;
  Engine engine(population, config);
  ASSERT_TRUE(engine.run_until_converged(3000).has_value());

  feed::DisseminationConfig dconfig;
  const auto report =
      feed::run_dissemination(engine.overlay(), dconfig, 300.0);
  // Request rate == pollers / poll_period (each direct child polls once
  // per period, regardless of updates).
  EXPECT_NEAR(report.source_request_rate, static_cast<double>(report.pollers),
              0.15 * static_cast<double>(report.pollers));
  EXPECT_EQ(report.pollers,
            engine.overlay().children(kSourceId).size());
}

TEST(DisseminationTest, DeeperNodesSeeMoreStaleness) {
  // On a witness tree (depths known exactly), mean staleness must grow
  // with depth.
  Population p;
  p.source_fanout = 1;
  p.consumers = {
      NodeSpec{1, Constraints{1, 1}},
      NodeSpec{2, Constraints{1, 2}},
      NodeSpec{3, Constraints{0, 3}},
  };
  const auto depths = feasible_depths(p);
  ASSERT_TRUE(depths.has_value());
  const Overlay overlay = build_witness_overlay(p, *depths);
  feed::DisseminationConfig dconfig;
  dconfig.source.publish_period = 1.7;
  const auto report = feed::run_dissemination(overlay, dconfig, 500.0);
  ASSERT_EQ(report.nodes.size(), 3u);
  EXPECT_LT(report.nodes[0].mean_staleness, report.nodes[1].mean_staleness);
  EXPECT_LT(report.nodes[1].mean_staleness, report.nodes[2].mean_staleness);
  EXPECT_EQ(report.violations, 0u);
}

TEST(DisseminationTest, PushMessageCountMatchesTreeEdges) {
  Population p;
  p.source_fanout = 1;
  p.consumers = {
      NodeSpec{1, Constraints{2, 1}},
      NodeSpec{2, Constraints{0, 2}},
      NodeSpec{3, Constraints{0, 2}},
  };
  Overlay overlay(p);
  overlay.attach(1, kSourceId);
  overlay.attach(2, 1);
  overlay.attach(3, 1);
  feed::DisseminationConfig dconfig;
  dconfig.source.publish_period = 5.0;
  const auto report = feed::run_dissemination(overlay, dconfig, 100.0);
  // Every item delivered to nodes 2 and 3 crossed exactly one push edge
  // (items published right at the horizon may still be in flight, so
  // compare against deliveries, not publications).
  EXPECT_EQ(report.push_messages,
            report.nodes[1].items + report.nodes[2].items);
  EXPECT_GT(report.push_messages, 0u);
}

/// Source -> relay 1 -> children 2, 3, 4, whose latency constraints
/// (4, 3, 2) run opposite to their ids.
Overlay relay_with_three_children() {
  Population p;
  p.source_fanout = 1;
  p.consumers = {
      NodeSpec{1, Constraints{3, 1}},
      NodeSpec{2, Constraints{0, 4}},
      NodeSpec{3, Constraints{0, 3}},
      NodeSpec{4, Constraints{0, 2}},
  };
  Overlay overlay(p);
  overlay.attach(1, kSourceId);
  for (NodeId child : {2, 3, 4}) overlay.attach(child, 1);
  return overlay;
}

TEST(DisseminationTest, SaturatedRelayShedsTheMostSlackChild) {
  // One item per unit window reaches the relay, which may forward two
  // per window: deadline-aware shedding serves l = 2 and l = 3 and
  // sheds node 2 (l = 4) every time — never the tightest child. The
  // capacity-free run sheds nothing.
  const Overlay overlay = relay_with_three_children();
  feed::DisseminationConfig config;
  config.source.publish_period = 1.0;
  EXPECT_EQ(feed::run_dissemination(overlay, config, 100.0).shed_pushes, 0u);
  config.capacity.relay_budget = 2;
  config.capacity.shedding = true;
  const auto report = feed::run_dissemination(overlay, config, 100.0);
  ASSERT_EQ(report.nodes.size(), 4u);
  EXPECT_GT(report.shed_pushes, 0u);
  EXPECT_EQ(report.shed_pushes, report.nodes[0].items);  // one per item
  EXPECT_EQ(report.nodes[1].items, 0u);                 // l = 4
  EXPECT_GT(report.nodes[3].items, 0u);                 // l = 2
  EXPECT_EQ(report.nodes[2].items, report.nodes[3].items);
  EXPECT_EQ(report.queue_drops, 0u);

  // Undefended, the same budget serves in id order: the tightest child,
  // node 4 (l = 2), is the one shed every time.
  config.capacity.shedding = false;
  const auto undefended = feed::run_dissemination(overlay, config, 100.0);
  EXPECT_EQ(undefended.shed_pushes, report.shed_pushes);
  EXPECT_EQ(undefended.nodes[3].items, 0u);
  EXPECT_EQ(undefended.nodes[1].items, report.nodes[3].items);

  // A budget of three covers all three children, except inside a
  // squeeze that halves it to one: there the relay serves only the
  // tightest child and sheds the other two.
  config.capacity.relay_budget = 3;
  config.capacity.shedding = true;
  EXPECT_EQ(feed::run_dissemination(overlay, config, 100.0).shed_pushes, 0u);
  config.capacity.squeezes.push_back({20.0, 60.0, 0.5});
  const auto squeezed = feed::run_dissemination(overlay, config, 100.0);
  EXPECT_GE(squeezed.shed_pushes, 2u * 39u);
  EXPECT_LE(squeezed.shed_pushes, 2u * 41u);
  EXPECT_EQ(squeezed.nodes[1].items + squeezed.shed_pushes / 2,
            squeezed.nodes[3].items);
  EXPECT_EQ(squeezed.nodes[2].items, squeezed.nodes[1].items);
}

TEST(DisseminationTest, RelayRanksChildrenByTheTightestDeadlineBelowThem) {
  // Source -> relay 1 -> {leaf B = 2 (l = 4); A = 3 (l = 6) -> grandchild
  // 4 (l = 3)}. The relay may forward one item per window. Its child A
  // is the one to serve: its subtree holds the tightest deadline, which
  // B's looser l = 4 must not outrank — neither by B's own l being
  // below A's nor by B's lower id.
  Population p;
  p.source_fanout = 1;
  p.consumers = {
      NodeSpec{1, Constraints{2, 1}},
      NodeSpec{2, Constraints{0, 4}},
      NodeSpec{3, Constraints{1, 6}},
      NodeSpec{4, Constraints{0, 3}},
  };
  Overlay overlay(p);
  overlay.attach(1, kSourceId);
  overlay.attach(2, 1);
  overlay.attach(3, 1);
  overlay.attach(4, 3);
  feed::DisseminationConfig config;
  config.source.publish_period = 1.0;
  config.capacity.relay_budget = 1;
  config.capacity.shedding = true;
  const auto report = feed::run_dissemination(overlay, config, 100.0);
  ASSERT_EQ(report.nodes.size(), 4u);
  EXPECT_GT(report.nodes[3].items, 0u);  // the grandchild is fed
  EXPECT_EQ(report.nodes[1].items, 0u);  // B is shed every time
  EXPECT_EQ(report.shed_pushes, report.nodes[0].items);
}

TEST(DisseminationTest, BoundedQueueRefusesForwards) {
  // Each poll hands the relay ~4 items, which it forwards at once; a
  // one-slot pending queue per child admits only the first of them.
  const Overlay overlay = relay_with_three_children();
  feed::DisseminationConfig config;
  config.source.publish_period = 0.25;
  config.capacity.queue_limit = 1;
  const auto report = feed::run_dissemination(overlay, config, 100.0);
  ASSERT_EQ(report.nodes.size(), 4u);
  EXPECT_GT(report.queue_drops, 0u);
  EXPECT_EQ(report.shed_pushes, 0u);
  // Every forward the relay tried was either sent or refused.
  EXPECT_EQ(report.push_messages + report.queue_drops,
            3 * report.nodes[0].items);
  for (std::size_t i = 1; i < report.nodes.size(); ++i) {
    EXPECT_GT(report.nodes[i].items, 0u);
    EXPECT_LT(report.nodes[i].items, report.nodes[0].items);
  }
}

/// (node, item, ts) of every receipt span `run` emits, with telemetry
/// on for its duration.
template <typename Run>
std::vector<std::tuple<std::uint32_t, std::uint64_t, double>> receipts_of(
    Run run) {
  std::vector<std::tuple<std::uint32_t, std::uint64_t, double>> receipts;
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  const auto id = telemetry::span_bus().subscribe(
      [&receipts](const telemetry::ItemSpan& span) {
        if (span.kind == telemetry::SpanKind::kSourcePoll ||
            span.kind == telemetry::SpanKind::kDeliver ||
            span.kind == telemetry::SpanKind::kRepair)
          receipts.emplace_back(span.node, span.item, span.ts);
      });
  run();
  telemetry::span_bus().unsubscribe(id);
  telemetry::set_enabled(was_enabled);
  telemetry::MetricsRegistry::instance().reset();
  return receipts;
}

TEST(DisseminationTest, IdealRunIsTheZeroLossLossyRun) {
  // The ideal model is the lossy one with no loss, no repair and the
  // ideal RNG stream (seed ^ 0xFEED, which seed_mix() yields from
  // seed ^ 0xFEED ^ 0x1055E5): every item must reach the same node at
  // the same instant in both.
  WorkloadParams params;
  params.peers = 80;
  params.seed = 12;
  EngineConfig engine_config;
  engine_config.seed = 12;
  Engine engine(generate_workload(WorkloadKind::kBiUnCorr, params),
                engine_config);
  ASSERT_TRUE(engine.run_until_converged(3000).has_value());
  for (const std::uint64_t seed : {1ULL, 7ULL}) {
    feed::DisseminationConfig ideal;
    ideal.seed = seed;
    ideal.source.publish_period = 0.5;
    feed::LossyConfig lossy;
    lossy.base = ideal;
    lossy.base.seed = seed ^ 0xFEEDULL ^ 0x1055E5ULL;
    lossy.push_loss = 0.0;
    lossy.enable_recovery = false;
    feed::DisseminationReport ideal_report;
    feed::LossyReport lossy_report;
    const auto ideal_receipts = receipts_of([&] {
      ideal_report = feed::run_dissemination(engine.overlay(), ideal, 200.0);
    });
    const auto lossy_receipts = receipts_of([&] {
      lossy_report =
          feed::run_lossy_dissemination(engine.overlay(), lossy, 200.0);
    });
    ASSERT_FALSE(ideal_receipts.empty());
    EXPECT_EQ(ideal_receipts, lossy_receipts);
    std::uint64_t received = 0;
    for (const auto& node : ideal_report.nodes) received += node.items;
    EXPECT_EQ(lossy_report.push_deliveries, received);
  }
}

}  // namespace
}  // namespace lagover
