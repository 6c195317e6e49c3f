// Integration and property tests for the round-based construction
// engine: convergence on every (algorithm, oracle, workload) mix the
// paper evaluates, structural invariants throughout construction, and
// behaviour on adversarial instances.
#include <gtest/gtest.h>

#include <memory>

#include "core/engine.hpp"
#include "core/sufficiency.hpp"
#include "workload/adversarial.hpp"
#include "workload/constraints.hpp"

namespace lagover {
namespace {

constexpr Round kMaxRounds = 3000;

Population tiny_tf1() {
  WorkloadParams params;
  params.peers = 12;  // 3 + 9 at fanout 3
  return generate_workload(WorkloadKind::kTf1, params);
}

TEST(EngineTest, GreedyConvergesOnTinyTf1) {
  EngineConfig config;
  config.algorithm = AlgorithmKind::kGreedy;
  config.oracle = OracleKind::kRandomDelay;
  config.seed = 7;
  Engine engine(tiny_tf1(), config);
  const auto converged = engine.run_until_converged(kMaxRounds);
  ASSERT_TRUE(converged.has_value());
  EXPECT_TRUE(engine.overlay().all_satisfied());
  engine.overlay().audit();
}

TEST(EngineTest, HybridConvergesOnTinyTf1) {
  EngineConfig config;
  config.algorithm = AlgorithmKind::kHybrid;
  config.oracle = OracleKind::kRandomDelay;
  config.seed = 7;
  Engine engine(tiny_tf1(), config);
  const auto converged = engine.run_until_converged(kMaxRounds);
  ASSERT_TRUE(converged.has_value());
  EXPECT_TRUE(engine.overlay().all_satisfied());
  engine.overlay().audit();
}

TEST(EngineTest, GreedyPreservesOrderingInvariantEveryRound) {
  EngineConfig config;
  config.algorithm = AlgorithmKind::kGreedy;
  config.oracle = OracleKind::kRandomDelay;
  config.seed = 11;
  WorkloadParams params;
  params.peers = 40;
  params.seed = 3;
  Engine engine(generate_workload(WorkloadKind::kRand, params), config);
  for (int round = 0; round < 200; ++round) {
    engine.run_round();
    engine.overlay().audit();
    ASSERT_EQ(engine.overlay().first_greedy_order_violation(), kNoNode)
        << "greedy ordering invariant broken at round " << round;
    if (engine.overlay().all_satisfied()) break;
  }
  EXPECT_TRUE(engine.overlay().all_satisfied());
}

TEST(EngineTest, ConvergedStateIsStableWithoutChurn) {
  EngineConfig config;
  config.algorithm = AlgorithmKind::kHybrid;
  config.seed = 5;
  Engine engine(tiny_tf1(), config);
  ASSERT_TRUE(engine.run_until_converged(kMaxRounds).has_value());
  // Without churn no further rounds may disturb a satisfied overlay.
  for (int i = 0; i < 50; ++i) {
    engine.run_round();
    ASSERT_TRUE(engine.overlay().all_satisfied());
  }
}

TEST(EngineTest, DeterministicGivenSeed) {
  WorkloadParams params;
  params.peers = 30;
  params.seed = 9;
  const Population population =
      generate_workload(WorkloadKind::kBiUnCorr, params);
  EngineConfig config;
  config.seed = 42;

  Engine a(population, config);
  Engine b(population, config);
  const auto ra = a.run_until_converged(kMaxRounds);
  const auto rb = b.run_until_converged(kMaxRounds);
  ASSERT_TRUE(ra.has_value());
  EXPECT_EQ(*ra, *rb);
  for (NodeId id = 1; id < a.overlay().node_count(); ++id)
    EXPECT_EQ(a.overlay().parent(id), b.overlay().parent(id));
}

TEST(EngineTest, HistoryRecordsMonotoneRounds) {
  EngineConfig config;
  config.seed = 3;
  Engine engine(tiny_tf1(), config);
  engine.set_record_history(true);
  engine.run_until_converged(kMaxRounds);
  const auto& history = engine.history();
  ASSERT_FALSE(history.empty());
  for (std::size_t i = 1; i < history.size(); ++i)
    EXPECT_EQ(history[i].round, history[i - 1].round + 1);
  EXPECT_DOUBLE_EQ(history.back().satisfied_fraction, 1.0);
}

TEST(EngineTest, TraceObserverSeesInteractions) {
  EngineConfig config;
  config.seed = 13;
  Engine engine(tiny_tf1(), config);
  std::size_t interactions = 0;
  std::size_t source_contacts = 0;
  engine.trace_bus().subscribe([&](const TraceEvent& event) {
    if (event.type == TraceEventType::kInteraction) ++interactions;
    if (event.type == TraceEventType::kSourceContact) ++source_contacts;
  });
  engine.run_until_converged(kMaxRounds);
  EXPECT_GT(interactions + source_contacts, 0u);
  EXPECT_GT(source_contacts, 0u);  // l=1 nodes must contact the source
}

TEST(EngineTest, GreedyCannotSolveAdversarialInstance) {
  EngineConfig config;
  config.algorithm = AlgorithmKind::kGreedy;
  config.oracle = OracleKind::kRandomDelay;
  config.seed = 17;
  Engine engine(corrected_counterexample(), config);
  EXPECT_FALSE(engine.run_until_converged(500).has_value());
  engine.overlay().audit();
  EXPECT_EQ(engine.overlay().first_greedy_order_violation(), kNoNode);
}

TEST(EngineTest, HybridSolvesAdversarialInstance) {
  EngineConfig config;
  config.algorithm = AlgorithmKind::kHybrid;
  config.oracle = OracleKind::kRandomDelay;
  config.seed = 17;
  Engine engine(corrected_counterexample(), config);
  const auto converged = engine.run_until_converged(2000);
  ASSERT_TRUE(converged.has_value());
  engine.overlay().audit();
  // The unique feasible shape: hub (node 2) parents nodes 3 and 4.
  EXPECT_EQ(engine.overlay().parent(3), 2u);
  EXPECT_EQ(engine.overlay().parent(4), 2u);
}

TEST(EngineTest, HybridSolvesAdversarialFamily) {
  for (int k : {1, 2, 5, 8}) {
    EngineConfig config;
    config.algorithm = AlgorithmKind::kHybrid;
    config.seed = 23 + static_cast<std::uint64_t>(k);
    Engine engine(adversarial_family(k), config);
    ASSERT_TRUE(engine.run_until_converged(3000).has_value())
        << "hybrid failed at k=" << k;
  }
}

TEST(EngineTest, GreedyNeverSolvesAdversarialFamily) {
  for (int k : {1, 3}) {
    EngineConfig config;
    config.algorithm = AlgorithmKind::kGreedy;
    config.seed = 29 + static_cast<std::uint64_t>(k);
    Engine engine(adversarial_family(k), config);
    EXPECT_FALSE(engine.run_until_converged(500).has_value())
        << "greedy unexpectedly solved k=" << k;
  }
}

TEST(EngineTest, StaleKnowledgeStillConverges) {
  // Section 2.1.3 ablation: maintenance acting on rounds-old
  // observations slows repairs but must not break convergence.
  for (int lag : {1, 4, 8}) {
    EngineConfig config;
    config.algorithm = AlgorithmKind::kHybrid;
    config.knowledge_lag = lag;
    config.seed = 31 + static_cast<std::uint64_t>(lag);
    WorkloadParams params;
    params.peers = 60;
    params.seed = 12;
    Engine engine(generate_workload(WorkloadKind::kBiCorr, params), config);
    const auto converged = engine.run_until_converged(kMaxRounds);
    ASSERT_TRUE(converged.has_value()) << "lag " << lag;
    engine.overlay().audit();
  }
}

TEST(EngineTest, StaleKnowledgeDelaysMaintenance) {
  // With a large lag, a violated node must NOT detach before the
  // violation becomes visible to it.
  Population p;
  p.source_fanout = 1;
  p.consumers = {
      NodeSpec{1, Constraints{1, 5}},
      NodeSpec{2, Constraints{1, 1}},  // violated at depth 2
  };
  EngineConfig config;
  config.algorithm = AlgorithmKind::kGreedy;  // patience 0
  config.knowledge_lag = 6;
  config.seed = 3;
  Engine engine(p, config);
  engine.overlay().attach(1, kSourceId);
  engine.overlay().attach(2, 1);
  // For the first lag-1 rounds node 2 has not yet "heard" about its
  // delay; it stays attached despite the live violation.
  for (int r = 0; r < 4; ++r) {
    engine.run_round();
    ASSERT_EQ(engine.overlay().parent(2), 1u) << "detached too early";
  }
  for (int r = 0; r < 10; ++r) engine.run_round();
  EXPECT_NE(engine.overlay().parent(2), 1u);  // eventually repaired
}

// --- property sweep: every algorithm x oracle x workload combination ---

struct SweepCase {
  AlgorithmKind algorithm;
  OracleKind oracle;
  WorkloadKind workload;
};

class ConvergenceSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ConvergenceSweep, ConvergesAndStaysValid) {
  const SweepCase c = GetParam();
  WorkloadParams params;
  params.peers = 60;
  params.seed = 101;
  const Population population = generate_workload(c.workload, params);
  ASSERT_TRUE(sufficiency_condition(population).holds);

  EngineConfig config;
  config.algorithm = c.algorithm;
  config.oracle = c.oracle;
  config.seed = 777;
  Engine engine(population, config);
  const auto converged = engine.run_until_converged(kMaxRounds);
  engine.overlay().audit();
  // The capacity-filtered oracles (O2a/O2b) are allowed to stall — that
  // is a headline finding of the paper. Everything else must converge.
  if (c.oracle == OracleKind::kRandom || c.oracle == OracleKind::kRandomDelay) {
    EXPECT_TRUE(converged.has_value())
        << to_string(c.algorithm) << " / " << to_string(c.oracle) << " / "
        << to_string(c.workload);
  }
  if (converged.has_value()) {
    EXPECT_TRUE(engine.overlay().all_satisfied());
  }
}

std::vector<SweepCase> all_sweep_cases() {
  std::vector<SweepCase> cases;
  for (auto algorithm : {AlgorithmKind::kGreedy, AlgorithmKind::kHybrid})
    for (auto oracle :
         {OracleKind::kRandom, OracleKind::kRandomCapacity,
          OracleKind::kRandomDelayCapacity, OracleKind::kRandomDelay})
      for (auto workload : kAllWorkloads)
        cases.push_back({algorithm, oracle, workload});
  return cases;
}

std::string sweep_name(const ::testing::TestParamInfo<SweepCase>& info) {
  std::string name = to_string(info.param.algorithm) + "_" +
                     paper_label(info.param.oracle) + "_" +
                     to_string(info.param.workload);
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllCombinations, ConvergenceSweep,
                         ::testing::ValuesIn(all_sweep_cases()), sweep_name);

}  // namespace
}  // namespace lagover
