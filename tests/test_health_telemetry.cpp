// Tests for the overlay health observatory (telemetry/health): the
// samples are read off the overlay's structural index, so the property
// at its heart is that the index agrees with an independent BFS
// recompute (audit_invariants) after EVERY round of a seeded greedy and
// hybrid sweep under churn and chaos, and that each round's sample
// reaches the recorder. Plus: one sample pinned field by field on a
// hand-built overlay, the byte-identical guard (an active recorder
// changes no engine decision), convergence-tracker semantics, stream
// stride doubling, and the shape of the embedded bench-JSON health
// block.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/async_engine.hpp"
#include "core/engine.hpp"
#include "core/node_runtime.hpp"
#include "core/snapshot.hpp"
#include "core/validator.hpp"
#include "fault/fault_injector.hpp"
#include "telemetry/health.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/churn.hpp"
#include "workload/constraints.hpp"

namespace lagover {
namespace {

using telemetry::HealthSample;
using telemetry::OverlayHealthRecorder;

/// Scoped telemetry enable that restores the previous state and leaves
/// the global registries clean (mirrors test_telemetry.cpp).
class TelemetryGuard {
 public:
  explicit TelemetryGuard(bool on) : previous_(telemetry::enabled()) {
    telemetry::MetricsRegistry::instance().reset();
    telemetry::set_enabled(on);
  }
  ~TelemetryGuard() {
    telemetry::set_enabled(previous_);
    telemetry::MetricsRegistry::instance().reset();
  }

 private:
  bool previous_;
};

/// Scoped health-recorder activation; deactivates on exit.
class HealthGuard {
 public:
  explicit HealthGuard(OverlayHealthRecorder::Config config = {})
      : recorder_(std::make_unique<OverlayHealthRecorder>(config)) {
    OverlayHealthRecorder::set_active(recorder_.get());
  }
  ~HealthGuard() { OverlayHealthRecorder::set_active(nullptr); }

  OverlayHealthRecorder& recorder() { return *recorder_; }

 private:
  std::unique_ptr<OverlayHealthRecorder> recorder_;
};

Population population(WorkloadKind kind, std::size_t peers,
                      std::uint64_t seed) {
  WorkloadParams params;
  params.peers = peers;
  params.seed = seed;
  return generate_workload(kind, params);
}

// ------------------------------------------------- the core property

// Greedy and hybrid construction under Bernoulli churn, several seeds:
// after every round the overlay's index must match the independent
// recompute exactly, and the round's sample must carry the engine's
// own orphan and satisfied counts.
TEST(HealthPropertyTest, IndexMatchesBfsRecomputeEveryRoundUnderChurn) {
  for (auto algorithm : {AlgorithmKind::kGreedy, AlgorithmKind::kHybrid}) {
    for (std::uint64_t seed : {3u, 17u, 29u}) {
      TelemetryGuard telemetry_guard(true);
      HealthGuard health_guard;
      std::vector<Json> samples;
      health_guard.recorder().set_sample_mirror(
          [&samples](const Json& line) { samples.push_back(line); });
      EngineConfig config;
      config.algorithm = algorithm;
      config.seed = seed;
      Engine engine(population(WorkloadKind::kBiCorr, 60, seed), config);
      engine.set_churn(std::make_unique<BernoulliChurn>(0.02, 0.2));
      ASSERT_NE(health_guard.recorder().current_run(), 0u);
      for (int round = 0; round < 150; ++round) {
        const RoundStats stats = engine.run_round();
        const InvariantReport report =
            audit_invariants(engine.overlay(), algorithm, &engine.epochs());
        ASSERT_TRUE(report.ok())
            << "algorithm=" << static_cast<int>(algorithm)
            << " seed=" << seed << " round=" << round << "\n"
            << report.to_string();
        ASSERT_FALSE(samples.empty());
        EXPECT_EQ(samples.back().find("round")->as_int(), stats.round);
        EXPECT_EQ(samples.back().find("orphans")->as_int(),
                  static_cast<std::int64_t>(stats.orphan_roots));
        EXPECT_EQ(samples.back().find("satisfied")->as_int(),
                  static_cast<std::int64_t>(stats.satisfied));
      }
      EXPECT_EQ(health_guard.recorder().samples_total(), 150u);
    }
  }
}

// Same property through the async engine under a chaos fault plan
// (crashes take nodes offline and back online mid-run).
TEST(HealthPropertyTest, IndexMatchesRecomputeUnderAsyncChaos) {
  TelemetryGuard telemetry_guard(true);
  HealthGuard health_guard;
  AsyncConfig config;
  config.algorithm = AlgorithmKind::kHybrid;
  config.seed = 41;
  fault::FaultPlan plan;
  plan.add(fault::FaultPlan::crashes(5.0, 60.0, 0.03, 5.0))
      .add(fault::FaultPlan::drop(20.0, 50.0, 0.2));
  config.faults = std::make_shared<fault::FaultInjector>(plan);
  AsyncEngine engine(population(WorkloadKind::kRand, 50, 13), config);
  ASSERT_NE(health_guard.recorder().current_run(), 0u);
  for (int window = 0; window < 20; ++window) {
    engine.run_for(5.0);
    const InvariantReport report = audit_invariants(
        engine.overlay(), AlgorithmKind::kHybrid, &engine.epochs());
    ASSERT_TRUE(report.ok()) << "window=" << window << "\n"
                             << report.to_string();
    ASSERT_GT(report.nodes_checked, 0u);
  }
  EXPECT_GT(engine.epochs().bumps(), 0u) << "plan did no damage";
  EXPECT_GT(health_guard.recorder().samples_total(), 0u);
}

// ------------------------------------------------- one pinned sample

// Source fanout 2; consumers as (fanout, latency).
Population hand_population() {
  Population p;
  p.source_fanout = 2;
  p.consumers = {
      NodeSpec{1, Constraints{2, 1}}, NodeSpec{2, Constraints{1, 3}},
      NodeSpec{3, Constraints{0, 2}}, NodeSpec{4, Constraints{1, 5}},
      NodeSpec{5, Constraints{1, 2}}, NodeSpec{6, Constraints{0, 1}},
      NodeSpec{7, Constraints{1, 4}}, NodeSpec{8, Constraints{0, 4}},
  };
  return p;
}

// Every aggregate of one sample, computed by hand: the source tree
// 0 <- 1 <- {2 <- 3, 4}, the detached group 5 <- 6, the lone orphan 8,
// and 7 offline after a stint under 4.
TEST(HealthSampleTest, PinsEveryFieldOnAHandBuiltOverlay) {
  TelemetryGuard telemetry_guard(true);
  HealthGuard health_guard;
  std::vector<Json> lines;
  health_guard.recorder().set_sample_mirror(
      [&lines](const Json& line) { lines.push_back(line); });
  RuntimeConfig config;
  {
    NodeRuntime runtime(hand_population(), config, /*timeout_limit=*/3);
    Overlay& overlay = runtime.overlay();
    overlay.attach(1, kSourceId);
    overlay.attach(2, 1);
    overlay.attach(3, 2);
    overlay.attach(4, 1);
    overlay.attach(6, 5);
    overlay.attach(7, 4);
    runtime.leave(7);
    runtime.sample_health(1.0);
    // The churn fields count only what changed since the last sample.
    overlay.detach(6);
    runtime.join(7);
    runtime.sample_health(2.0);
  }
  ASSERT_EQ(lines.size(), 2u);
  const Json& churn = *lines.front().find("churn");
  EXPECT_EQ(churn.find("attaches")->as_int(), 6);
  EXPECT_EQ(churn.find("detaches")->as_int(), 1);
  EXPECT_EQ(churn.find("offlines")->as_int(), 1);
  EXPECT_EQ(churn.find("onlines")->as_int(), 0);

  // Online consumers 1-6 and 8. DelayAt: 1, 2, 3, 2 in the source tree;
  // 1 and 2 in the detached group (optimistic); 1 for the orphan 8.
  // Slack l - DelayAt: 0, 1, -1, 3, 1, -1, 3.
  const Json& sample = lines.front();
  EXPECT_EQ(sample.find("round")->as_int(), 1);
  EXPECT_EQ(sample.find("online")->as_int(), 7);
  EXPECT_EQ(sample.find("orphans")->as_int(), 2);
  EXPECT_EQ(sample.find("satisfied")->as_int(), 3);
  EXPECT_EQ(sample.find("unsatisfied")->as_int(), 4);
  EXPECT_FALSE(sample.find("converged")->as_bool(true));
  const Json& depth = *sample.find("depth");
  EXPECT_EQ(depth.find("max")->as_int(), 3);
  EXPECT_DOUBLE_EQ(depth.find("mean")->as_number(), 12.0 / 7.0);
  EXPECT_EQ(depth.find("p50")->as_int(), 2);
  EXPECT_EQ(depth.find("p90")->as_int(), 3);
  EXPECT_EQ(depth.find("p99")->as_int(), 3);
  const Json& slack = *sample.find("slack");
  EXPECT_EQ(slack.find("min")->as_int(), -1);
  EXPECT_DOUBLE_EQ(slack.find("mean")->as_number(), 6.0 / 7.0);
  EXPECT_EQ(slack.find("deepest")->as_int(), -1);
  EXPECT_EQ(slack.find("violated")->as_int(), 2);
  // Edges 1-4 and 6; capacity 2+2+1+0+1+1+0+0 over the online nodes;
  // saturated 1, 2, 3, 5, 6 and 8.
  const Json& fanout = *sample.find("fanout");
  EXPECT_EQ(fanout.find("edges")->as_int(), 5);
  EXPECT_EQ(fanout.find("capacity")->as_int(), 7);
  EXPECT_EQ(fanout.find("saturated")->as_int(), 6);
  EXPECT_DOUBLE_EQ(fanout.find("utilization")->as_number(), 5.0 / 7.0);

  // The second sample: 6 detached, 7 back online and parentless.
  const auto runs = health_guard.recorder().completed_runs();
  ASSERT_EQ(runs.size(), 1u);
  const HealthSample& last = runs.front().final;
  EXPECT_EQ(last.round, 2);
  EXPECT_EQ(last.online, 8u);
  EXPECT_EQ(last.orphans, 4u);
  EXPECT_EQ(last.edges, 4u);
  EXPECT_EQ(last.attaches, 0u);
  EXPECT_EQ(last.detaches, 1u);
  EXPECT_EQ(last.offlines, 0u);
  EXPECT_EQ(last.onlines, 1u);
}

// ----------------------------------------------- byte-identical guard

std::string converged_snapshot(AlgorithmKind algorithm) {
  EngineConfig config;
  config.algorithm = algorithm;
  config.seed = 23;
  Engine engine(population(WorkloadKind::kRand, 48, 11), config);
  engine.run_until_converged(3000);
  return to_snapshot(engine.overlay());
}

// The observatory is read-only: recording on vs everything off must
// produce byte-identical overlays. This is the in-process half of the
// CI guarantee that default runs match pre-observatory output.
TEST(HealthDefaultOffTest, RecorderChangesNoEngineDecision) {
  for (auto algorithm : {AlgorithmKind::kGreedy, AlgorithmKind::kHybrid}) {
    std::string with_recorder;
    {
      TelemetryGuard telemetry_guard(true);
      HealthGuard health_guard;
      with_recorder = converged_snapshot(algorithm);
      EXPECT_GT(health_guard.recorder().samples_total(), 0u);
    }
    std::string without;
    {
      TelemetryGuard telemetry_guard(false);
      without = converged_snapshot(algorithm);
    }
    EXPECT_EQ(with_recorder, without);
  }
}

// With no active recorder, engines must not register runs at all, even
// when the rest of telemetry is on.
TEST(HealthDefaultOffTest, NoRecorderMeansNoRuns) {
  TelemetryGuard telemetry_guard(true);
  OverlayHealthRecorder bystander;  // constructed but never set_active
  EngineConfig config;
  config.seed = 7;
  Engine engine(population(WorkloadKind::kRand, 24, 7), config);
  engine.run_until_converged(2000);
  EXPECT_EQ(bystander.current_run(), 0u);
  EXPECT_EQ(bystander.samples_total(), 0u);
}

// --------------------------------------------- convergence semantics

// With stability_rounds=1 the tracker must latch exactly the engine's
// first all-satisfied round.
TEST(HealthConvergenceTest, LatchesFirstAllSatisfiedRound) {
  TelemetryGuard telemetry_guard(true);
  HealthGuard health_guard;
  EngineConfig config;
  config.algorithm = AlgorithmKind::kGreedy;
  config.seed = 9;
  std::int64_t engine_round = -1;
  {
    Engine engine(population(WorkloadKind::kRand, 40, 5), config);
    const auto converged = engine.run_until_converged(3000);
    ASSERT_TRUE(converged.has_value());
    engine_round = static_cast<std::int64_t>(*converged);
  }  // dtor ends the run
  const auto runs = health_guard.recorder().completed_runs();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(runs.front().converged);
  EXPECT_EQ(runs.front().convergence_round, engine_round);
  EXPECT_EQ(runs.front().final.unsatisfied, 0);
  EXPECT_EQ(runs.front().final.orphans, 0);
}

// stability_rounds > the run length must not latch: a run that stops
// the moment it converges has no stability window to observe.
TEST(HealthConvergenceTest, StabilityWindowRejectsTransientConvergence) {
  TelemetryGuard telemetry_guard(true);
  OverlayHealthRecorder::Config recorder_config;
  recorder_config.stability_rounds = 1000000;
  HealthGuard health_guard(recorder_config);
  EngineConfig config;
  config.seed = 9;
  {
    Engine engine(population(WorkloadKind::kRand, 40, 5), config);
    ASSERT_TRUE(engine.run_until_converged(3000).has_value());
  }
  const auto runs = health_guard.recorder().completed_runs();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_FALSE(runs.front().converged);
  EXPECT_EQ(runs.front().convergence_round, -1);
}

// ------------------------------------------------- stream and JSON

// The stream stays within its budget by stride doubling, while the
// in-memory sample count and the mirror keep every round.
TEST(HealthStreamTest, StrideDoublingBoundsEmittedSamples) {
  TelemetryGuard telemetry_guard(true);
  OverlayHealthRecorder::Config recorder_config;
  recorder_config.stream_budget = 8;
  HealthGuard health_guard(recorder_config);
  auto& recorder = health_guard.recorder();
  std::size_t mirrored = 0;
  recorder.set_sample_mirror([&mirrored](const Json&) { ++mirrored; });
  const std::uint64_t run = recorder.begin_run(16);
  for (int round = 1; round <= 200; ++round) {
    HealthSample sample;
    sample.t = static_cast<double>(round);
    recorder.note_round(run, sample);
  }
  recorder.end_run(run);
  EXPECT_EQ(recorder.samples_total(), 200u);
  // Emitted samples: at most budget per stride generation, log2(200/8)
  // generations — far fewer than 200.
  EXPECT_LE(recorder.stream_lines(), 2u + 8u * 6u);
  EXPECT_EQ(mirrored, 200u);
}

// The embedded bench block carries run/convergence statistics.
TEST(HealthStreamTest, ToJsonSummarizesRuns) {
  TelemetryGuard telemetry_guard(true);
  HealthGuard health_guard;
  for (std::uint64_t seed : {1u, 2u}) {
    EngineConfig config;
    config.seed = seed;
    Engine engine(population(WorkloadKind::kRand, 32, seed), config);
    ASSERT_TRUE(engine.run_until_converged(3000).has_value());
  }
  const Json block = health_guard.recorder().to_json();
  EXPECT_EQ(block.find("schema")->as_string(), "lagover.health.v1");
  EXPECT_EQ(block.find("runs")->as_int(), 2);
  EXPECT_EQ(block.find("converged_runs")->as_int(), 2);
  const Json* stats = block.find("convergence_round");
  ASSERT_NE(stats, nullptr);
  EXPECT_GE(stats->find("min")->as_int(), 0);
  EXPECT_LE(stats->find("min")->as_int(), stats->find("max")->as_int());
  const Json* final = block.find("final");
  ASSERT_NE(final, nullptr);
  EXPECT_EQ(final->find("unsatisfied")->as_int(), 0);
}

}  // namespace
}  // namespace lagover
