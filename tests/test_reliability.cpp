// Tests for lossy dissemination and anti-entropy recovery.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "feed/reliability.hpp"
#include "workload/constraints.hpp"

namespace lagover {
namespace {

Overlay converged_overlay(std::size_t peers, std::uint64_t seed) {
  WorkloadParams params;
  params.peers = peers;
  params.seed = seed;
  EngineConfig config;
  config.seed = seed;
  Engine engine(generate_workload(WorkloadKind::kBiUnCorr, params), config);
  EXPECT_TRUE(engine.run_until_converged(3000).has_value());
  return engine.overlay();
}

TEST(ReliabilityTest, NoLossDeliversEverything) {
  const Overlay overlay = converged_overlay(60, 3);
  feed::LossyConfig config;
  config.push_loss = 0.0;
  config.enable_recovery = false;
  const auto report =
      feed::run_lossy_dissemination(overlay, config, /*duration=*/200.0);
  EXPECT_DOUBLE_EQ(report.delivery_ratio, 1.0);
  EXPECT_EQ(report.lost_pushes, 0u);
  EXPECT_EQ(report.recovered_deliveries, 0u);
  EXPECT_EQ(report.late_deliveries, 0u);
}

TEST(ReliabilityTest, LossWithoutRecoveryDropsDeliveries) {
  const Overlay overlay = converged_overlay(60, 4);
  feed::LossyConfig config;
  config.push_loss = 0.2;
  config.enable_recovery = false;
  const auto report = feed::run_lossy_dissemination(overlay, config, 200.0);
  EXPECT_LT(report.delivery_ratio, 0.99);
  EXPECT_GT(report.lost_pushes, 0u);
  EXPECT_EQ(report.recovery_pulls, 0u);
}

TEST(ReliabilityTest, RecoveryRestoresDeliveryRatio) {
  const Overlay overlay = converged_overlay(60, 5);
  feed::LossyConfig lossy;
  lossy.push_loss = 0.2;
  lossy.enable_recovery = false;
  const auto without = feed::run_lossy_dissemination(overlay, lossy, 300.0);

  lossy.enable_recovery = true;
  const auto with = feed::run_lossy_dissemination(overlay, lossy, 300.0);

  EXPECT_GT(with.delivery_ratio, without.delivery_ratio);
  EXPECT_GT(with.delivery_ratio, 0.999);
  EXPECT_GT(with.recovered_deliveries, 0u);
  EXPECT_GT(with.recovery_pulls, 0u);
}

TEST(ReliabilityTest, RecoveredDeliveriesCanBeLate) {
  // Recovery repairs completeness, not timeliness: with serious loss a
  // nonzero fraction of deliveries exceed the staleness budget.
  const Overlay overlay = converged_overlay(80, 6);
  feed::LossyConfig config;
  config.push_loss = 0.3;
  config.enable_recovery = true;
  config.recovery_period = 4.0;
  const auto report = feed::run_lossy_dissemination(overlay, config, 300.0);
  EXPECT_GT(report.delivery_ratio, 0.99);
  EXPECT_GT(report.late_deliveries, 0u);
}

TEST(ReliabilityTest, SourcePollersAreNeverLossy) {
  // A star topology (everyone polls the source) has no push edges, so
  // loss cannot affect it.
  Population p;
  p.source_fanout = 5;
  for (NodeId id = 1; id <= 5; ++id)
    p.consumers.push_back(NodeSpec{id, Constraints{0, 2}});
  Overlay overlay(p);
  for (NodeId id = 1; id <= 5; ++id) overlay.attach(id, kSourceId);
  feed::LossyConfig config;
  config.push_loss = 0.9;
  const auto report = feed::run_lossy_dissemination(overlay, config, 100.0);
  EXPECT_DOUBLE_EQ(report.delivery_ratio, 1.0);
  EXPECT_EQ(report.lost_pushes, 0u);
}

TEST(ReliabilityTest, DuplicatesAreSuppressedExactlyOnceSemantics) {
  // With duplicate injection on, every extra copy of an already-applied
  // item must be counted and dropped: applications stays exactly
  // push_deliveries + recovered_deliveries, and the delivery ratio is
  // unaffected by the duplicate storm.
  const Overlay overlay = converged_overlay(60, 8);
  feed::LossyConfig config;
  config.push_loss = 0.1;
  config.duplicate_probability = 0.4;
  const auto report = feed::run_lossy_dissemination(overlay, config, 300.0);
  EXPECT_GT(report.duplicate_pushes, 0u);
  EXPECT_GT(report.duplicates_suppressed, 0u);
  EXPECT_EQ(report.applications,
            report.push_deliveries + report.recovered_deliveries);
  // Injected copies always trail an applied original, so at least that
  // many receipts were suppressed (repair/forward races add more).
  EXPECT_GE(report.duplicates_suppressed, report.duplicate_pushes / 2);
  EXPECT_GT(report.delivery_ratio, 0.999);
}

TEST(ReliabilityTest, ZeroDuplicateProbabilityIsByteIdentical) {
  // duplicate_probability = 0 must draw no extra randomness: the report
  // matches the pre-duplicates configuration bit for bit, and no
  // injected copy ever enters the system.
  const Overlay overlay = converged_overlay(40, 9);
  feed::LossyConfig config;
  config.push_loss = 0.15;
  const auto base = feed::run_lossy_dissemination(overlay, config, 200.0);
  feed::LossyConfig dup = config;
  dup.duplicate_probability = 0.0;
  const auto same = feed::run_lossy_dissemination(overlay, dup, 200.0);
  EXPECT_EQ(base.push_deliveries, same.push_deliveries);
  EXPECT_EQ(base.recovered_deliveries, same.recovered_deliveries);
  EXPECT_DOUBLE_EQ(base.delivery_ratio, same.delivery_ratio);
  EXPECT_EQ(same.duplicate_pushes, 0u);
}

TEST(ReliabilityTest, NackRepairMatchesBlanketRatioWithFewerMessages) {
  // The NACK repairer computes the same repair set as blanket
  // anti-entropy, so the delivery ratio cannot regress — but it only
  // speaks when it has gaps to name, so it must send strictly fewer
  // repair requests under equal loss.
  const Overlay overlay = converged_overlay(60, 10);
  feed::LossyConfig blanket;
  blanket.push_loss = 0.2;
  blanket.repair = feed::RepairMode::kAntiEntropy;
  const auto anti = feed::run_lossy_dissemination(overlay, blanket, 300.0);

  feed::LossyConfig nack = blanket;
  nack.repair = feed::RepairMode::kNack;
  const auto targeted = feed::run_lossy_dissemination(overlay, nack, 300.0);

  EXPECT_GE(targeted.delivery_ratio, anti.delivery_ratio);
  EXPECT_GT(targeted.delivery_ratio, 0.999);
  EXPECT_LT(targeted.recovery_pulls, anti.recovery_pulls);
  EXPECT_GT(targeted.nacked_items, 0u);
  EXPECT_EQ(anti.nacked_items, 0u);
  // Both strategies actually repaired something.
  EXPECT_GT(anti.recovered_deliveries, 0u);
  EXPECT_GT(targeted.recovered_deliveries, 0u);
}

TEST(ReliabilityTest, NackUnderDuplicatesStaysExactlyOnce) {
  // The full upgrade at once: loss + duplicate storm + NACK repair.
  // Exactly-once application and full eventual delivery both hold.
  const Overlay overlay = converged_overlay(60, 11);
  feed::LossyConfig config;
  config.push_loss = 0.25;
  config.duplicate_probability = 0.3;
  config.repair = feed::RepairMode::kNack;
  const auto report = feed::run_lossy_dissemination(overlay, config, 300.0);
  EXPECT_GT(report.delivery_ratio, 0.999);
  EXPECT_EQ(report.applications,
            report.push_deliveries + report.recovered_deliveries);
  EXPECT_GT(report.duplicates_suppressed, 0u);
  EXPECT_GT(report.nacked_items, 0u);
}

TEST(ReliabilityDeathTest, RejectsPushSource) {
  // The repair loop never serves the source's direct children, so a
  // lossy source push could never be recovered.
  const Overlay overlay = converged_overlay(20, 3);
  feed::LossyConfig config;
  config.base.push_source = true;
  EXPECT_DEATH(feed::run_lossy_dissemination(overlay, config, 10.0),
               "precondition");
}

TEST(ReliabilityTest, DeterministicPerSeed) {
  const Overlay overlay = converged_overlay(40, 7);
  feed::LossyConfig config;
  config.push_loss = 0.15;
  const auto a = feed::run_lossy_dissemination(overlay, config, 150.0);
  const auto b = feed::run_lossy_dissemination(overlay, config, 150.0);
  EXPECT_EQ(a.push_deliveries, b.push_deliveries);
  EXPECT_EQ(a.recovered_deliveries, b.recovered_deliveries);
  EXPECT_DOUBLE_EQ(a.delivery_ratio, b.delivery_ratio);
}

}  // namespace
}  // namespace lagover
