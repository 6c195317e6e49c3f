// Construction under churn (paper Section 5.3): the system must keep a
// high satisfied fraction under the paper's churn rates and reconverge
// after churn stops or after mass failures.
#include <gtest/gtest.h>

#include <memory>

#include "core/engine.hpp"
#include "workload/churn.hpp"
#include "workload/constraints.hpp"

namespace lagover {
namespace {

Population bicorr(std::size_t peers, std::uint64_t seed) {
  WorkloadParams params;
  params.peers = peers;
  params.seed = seed;
  return generate_workload(WorkloadKind::kBiCorr, params);
}

TEST(ChurnEngineTest, OverlayStaysValidUnderChurn) {
  for (auto algorithm : {AlgorithmKind::kGreedy, AlgorithmKind::kHybrid}) {
    EngineConfig config;
    config.algorithm = algorithm;
    config.seed = 71;
    Engine engine(bicorr(80, 4), config);
    engine.set_churn(std::make_unique<BernoulliChurn>(0.01, 0.2));
    for (int r = 0; r < 400; ++r) {
      engine.run_round();
      engine.overlay().audit();
    }
  }
}

TEST(ChurnEngineTest, HighSatisfactionSustainedUnderPaperChurnRates) {
  EngineConfig config;
  config.algorithm = AlgorithmKind::kHybrid;
  config.seed = 5;
  Engine engine(bicorr(120, 9), config);
  engine.set_churn(std::make_unique<BernoulliChurn>(0.01, 0.2));
  engine.set_record_history(true);
  for (int r = 0; r < 600; ++r) engine.run_round();
  // After a burn-in, the steady-state satisfied fraction should be high
  // (churn at 1%/20% displaces only a few nodes per round).
  double sum = 0.0;
  int count = 0;
  for (const auto& stats : engine.history()) {
    if (stats.round <= 200) continue;
    sum += stats.satisfied_fraction;
    ++count;
  }
  ASSERT_GT(count, 0);
  EXPECT_GT(sum / count, 0.85);
}

TEST(ChurnEngineTest, ReconvergesAfterChurnWindowEnds) {
  EngineConfig config;
  config.algorithm = AlgorithmKind::kHybrid;
  config.seed = 6;
  Engine engine(bicorr(60, 2), config);
  engine.set_churn(std::make_unique<WindowedChurn>(150, 0.02, 0.2));
  const auto converged = engine.run_until_converged(3000);
  ASSERT_TRUE(converged.has_value());
  EXPECT_TRUE(engine.overlay().all_satisfied());
}

TEST(ChurnEngineTest, RecoversFromMassFailure) {
  EngineConfig config;
  config.algorithm = AlgorithmKind::kHybrid;
  config.seed = 7;
  Engine engine(bicorr(60, 3), config);
  engine.set_churn(std::make_unique<MassFailureChurn>(
      /*fail_round=*/50, /*fail_fraction=*/0.4, /*p_join=*/0.3));
  // Let it converge, suffer the failure, and reconverge with everyone
  // eventually back online.
  bool converged_before_failure = false;
  for (int r = 0; r < 50; ++r) {
    engine.run_round();
    if (engine.overlay().all_satisfied()) converged_before_failure = true;
  }
  EXPECT_TRUE(converged_before_failure);
  bool reconverged = false;
  for (int r = 0; r < 1000 && !reconverged; ++r) {
    engine.run_round();
    reconverged = engine.overlay().online_count() ==
                      engine.overlay().consumer_count() &&
                  engine.overlay().all_satisfied();
  }
  EXPECT_TRUE(reconverged);
  engine.overlay().audit();
}

TEST(ChurnEngineTest, MassFailureRecoveryIsBoundedWithNoPermanentOrphans) {
  // Sharper contract than RecoversFromMassFailure: once the last failed
  // node has rejoined, full reconvergence must follow within a bounded
  // number of rounds — and no online node may end the run parentless.
  for (auto algorithm : {AlgorithmKind::kGreedy, AlgorithmKind::kHybrid}) {
    EngineConfig config;
    config.algorithm = algorithm;
    config.seed = 17;
    Engine engine(bicorr(80, 11), config);
    engine.set_churn(std::make_unique<MassFailureChurn>(
        /*fail_round=*/150, /*fail_fraction=*/0.5, /*p_join=*/0.3));
    // Converge first; stop one round short of the failure round so the
    // assertion sees the healthy overlay, not the fresh damage.
    for (int r = 0; r < 149; ++r) engine.run_round();
    ASSERT_TRUE(engine.overlay().all_satisfied()) << to_string(algorithm);

    // Phase 1: everyone is back online. p_join = 0.3 rejoins half the
    // population in ~20 rounds in expectation; 300 is a generous cap.
    int all_online_round = -1;
    for (int r = 0; r < 300 && all_online_round < 0; ++r) {
      engine.run_round();
      if (engine.overlay().online_count() == engine.overlay().consumer_count())
        all_online_round = static_cast<int>(engine.round());
    }
    ASSERT_GE(all_online_round, 0)
        << to_string(algorithm) << ": nodes never all rejoined";

    // Phase 2: bounded reconvergence. The last rejoiner still has to
    // attach and propagate; 150 rounds is several times the from-scratch
    // construction time for this population.
    int reconverged_round = -1;
    for (int r = 0; r < 150 && reconverged_round < 0; ++r) {
      if (engine.overlay().all_satisfied())
        reconverged_round = static_cast<int>(engine.round());
      else
        engine.run_round();
    }
    ASSERT_GE(reconverged_round, 0)
        << to_string(algorithm) << ": no reconvergence within bound";
    EXPECT_LE(reconverged_round - all_online_round, 150);

    // No permanent orphans: every online consumer has a parent and
    // meets its constraint.
    for (NodeId id = 1; id < engine.overlay().node_count(); ++id) {
      if (!engine.overlay().online(id)) continue;
      EXPECT_TRUE(engine.overlay().has_parent(id))
          << to_string(algorithm) << ": permanent orphan " << id;
    }
    engine.overlay().audit();
  }
}

TEST(ChurnEngineTest, ChurnEventsAppearInTrace) {
  EngineConfig config;
  config.seed = 8;
  Engine engine(bicorr(60, 5), config);
  engine.set_churn(std::make_unique<BernoulliChurn>(0.05, 0.3));
  std::size_t leaves = 0;
  std::size_t joins = 0;
  engine.trace_bus().subscribe([&](const TraceEvent& event) {
    if (event.type == TraceEventType::kChurnLeave) ++leaves;
    if (event.type == TraceEventType::kChurnJoin) ++joins;
  });
  for (int r = 0; r < 100; ++r) engine.run_round();
  EXPECT_GT(leaves, 0u);
  EXPECT_GT(joins, 0u);
}

}  // namespace
}  // namespace lagover
