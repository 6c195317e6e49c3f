// Golden-bundle tests for the lagover_inspect query core: a seeded,
// audited chaos run is dumped through the flight recorder, reloaded
// from disk, and the offline answers are checked against ground truth
// from the live run — every delivered item has a complete
// publish→deliver chain, `laggards` agrees with the
// "feed.deadline_misses" counter, and `ancestry_at` reproduces the
// overlay's actual parent chains. A second group forces an invariant
// violation and checks the post-mortem bundle is self-contained and
// replays (same seed, same audit) to the same violation.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/snapshot.hpp"
#include "core/validator.hpp"
#include "feed/reliability.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"
#include "tools/inspect.hpp"
#include "workload/constraints.hpp"

namespace lagover {
namespace {

/// Scoped telemetry enable mirroring test_telemetry.cpp's guard.
class TelemetryGuard {
 public:
  TelemetryGuard() : previous_(telemetry::enabled()) {
    telemetry::MetricsRegistry::instance().reset();
    telemetry::set_enabled(true);
  }
  ~TelemetryGuard() {
    telemetry::set_enabled(previous_);
    telemetry::MetricsRegistry::instance().reset();
  }

 private:
  bool previous_;
};

/// Deletes the file when the test scope ends.
class TempFile {
 public:
  explicit TempFile(std::string path) : path_(std::move(path)) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

TEST(InspectTest, SelfCheckPasses) {
  std::string error;
  EXPECT_TRUE(tools::self_check(&error)) << error;
}

/// One seeded lossy run dumped through the flight recorder and loaded
/// back — the shared fixture for the golden-bundle assertions.
class GoldenBundleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    guard_ = std::make_unique<TelemetryGuard>();
    WorkloadParams params;
    params.peers = 40;
    params.seed = 17;
    EngineConfig config;
    config.seed = 17;
    engine_ = std::make_unique<Engine>(
        generate_workload(WorkloadKind::kBiUnCorr, params), config);
    ASSERT_TRUE(engine_->run_until_converged(3000).has_value());

    telemetry::FlightRecorder::Config capacity;
    capacity.span_capacity = 1 << 20;  // retain the whole run
    capacity.event_capacity = 1 << 20;
    telemetry::FlightRecorder recorder(capacity);
    recorder.set_repro(17, "--peers 40 --seed 17");
    recorder.note_snapshot(0.0, to_snapshot(engine_->overlay()));

    feed::LossyConfig lossy;
    lossy.base.seed = 17;
    lossy.push_loss = 0.2;
    lossy.enable_recovery = true;
    lossy.repair = feed::RepairMode::kNack;
    report_ = feed::run_lossy_dissemination(engine_->overlay(), lossy, 60.0);
    misses_ = telemetry::MetricsRegistry::instance()
                  .counter("feed.deadline_misses")
                  .value();

    file_ = std::make_unique<TempFile>("test_inspect_golden.json");
    ASSERT_TRUE(recorder.dump(file_->path(), "golden"));
    std::string error;
    ASSERT_TRUE(tools::load_bundle(file_->path(), bundle_, &error)) << error;
  }

  std::unique_ptr<TelemetryGuard> guard_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<TempFile> file_;
  feed::LossyReport report_;
  std::uint64_t misses_ = 0;
  tools::Bundle bundle_;
};

TEST_F(GoldenBundleTest, BundleIsSelfContained) {
  EXPECT_TRUE(bundle_.is_postmortem());
  EXPECT_EQ(bundle_.reason, "golden");
  EXPECT_EQ(bundle_.seed, 17u);
  EXPECT_EQ(bundle_.flags, "--peers 40 --seed 17");
  ASSERT_EQ(bundle_.snapshots.size(), 1u);
  EXPECT_FALSE(bundle_.spans.empty());
  EXPECT_FALSE(bundle_.metrics.is_null());
}

TEST_F(GoldenBundleTest, EveryDeliveredItemHasACompletePath) {
  // Ground truth: the first receipt of each (item, node). Every one of
  // them must reconstruct to an unbroken publish→...→deliver chain.
  std::map<std::pair<std::uint64_t, NodeId>, bool> receipts;
  for (const auto& span : bundle_.spans)
    if (span.is_receipt())
      receipts.emplace(std::make_pair(span.item, span.node), true);
  ASSERT_GT(receipts.size(), 0u);

  std::size_t checked = 0;
  for (const auto& [key, unused] : receipts) {
    const auto result = tools::item_path(bundle_, key.first, key.second);
    EXPECT_TRUE(result.complete)
        << "item " << key.first << " node " << key.second << ": "
        << result.note;
    ASSERT_GE(result.hops.size(), 2u);  // publish + at least one receipt
    EXPECT_EQ(result.hops.front().kind, "publish");
    EXPECT_EQ(result.hops.back().node, key.second);
    // Hops are causally chained: each receipt came from the previous
    // node in the walk.
    for (std::size_t i = 2; i < result.hops.size(); ++i)
      EXPECT_EQ(result.hops[i].parent, result.hops[i - 1].node);
    ++checked;
  }
  EXPECT_EQ(checked, receipts.size());
}

TEST_F(GoldenBundleTest, LaggardsAgreeWithDeadlineMissCounter) {
  ASSERT_GT(misses_, 0u);  // loss + recovery must produce late receipts
  EXPECT_EQ(tools::deadline_misses(bundle_), misses_);
  const auto late = tools::laggards(bundle_);
  EXPECT_EQ(late.size(), misses_);
  // Worst first, and every entry genuinely beyond its budget.
  for (std::size_t i = 1; i < late.size(); ++i)
    EXPECT_GE(late[i - 1].miss, late[i].miss);
  for (const auto& laggard : late)
    EXPECT_GT(laggard.latency, laggard.deadline);
}

TEST_F(GoldenBundleTest, AncestryMatchesLiveOverlay) {
  const Overlay& overlay = engine_->overlay();
  for (NodeId node = 1; node < overlay.node_count(); ++node) {
    const auto result = tools::ancestry_at(bundle_, node, 30.0);
    ASSERT_TRUE(result.ok) << result.note;
    // Rebuild the expected chain from the live structure.
    std::vector<NodeId> expected{node};
    for (NodeId at = node; overlay.parent(at) != kNoNode;
         at = overlay.parent(at))
      expected.push_back(overlay.parent(at));
    EXPECT_EQ(result.chain, expected) << "node " << node;
  }
}

TEST(InspectPostmortemTest, ForcedViolationDumpsAndReplays) {
  TelemetryGuard guard;
  // An overlay whose depth breaks node 2's latency budget — the audit
  // must flag it, and the flagged audit must trigger the dump.
  Population population;
  population.source_fanout = 1;
  population.consumers = {NodeSpec{1, Constraints{1, 2}},
                          NodeSpec{2, Constraints{0, 1}}};
  auto violate = [&population](telemetry::FlightRecorder* recorder) {
    Overlay overlay(population);
    overlay.attach(1, kSourceId);
    overlay.attach(2, 1);
    // Corrupt the greedy ordering: node 2 (l=1) hangs below node 1
    // (l=2), which kGreedy forbids.
    const auto report = audit_invariants(overlay, AlgorithmKind::kGreedy);
    if (recorder != nullptr) {
      AuditBus bus;
      const auto sub = attach_flight_recorder(bus, *recorder);
      publish(report, bus, 7);
      bus.unsubscribe(sub);
    }
    return report;
  };

  TempFile file("test_inspect_postmortem.json");
  telemetry::FlightRecorder recorder;
  recorder.set_repro(99, "--forced-violation");
  recorder.set_dump_on_violation(file.path());
  recorder.note_snapshot(0.0, "lagover-snapshot v1\nsource 1\n");
  const auto live = violate(&recorder);
  ASSERT_FALSE(live.ok());
  EXPECT_TRUE(recorder.violation_seen());
  EXPECT_TRUE(recorder.dumped());

  tools::Bundle bundle;
  std::string error;
  ASSERT_TRUE(tools::load_bundle(file.path(), bundle, &error)) << error;
  EXPECT_EQ(bundle.reason, "invariant_violation");
  EXPECT_EQ(bundle.seed, 99u);
  ASSERT_GT(bundle.violations.size(), 0u);

  // Replay: the bundle's repro inputs rebuild the same overlay, and the
  // re-run audit reports the identical violation set.
  const auto replayed = violate(nullptr);
  ASSERT_EQ(replayed.violations.size(), live.violations.size());
  ASSERT_EQ(bundle.violations.size(), live.violations.size());
  for (std::size_t i = 0; i < live.violations.size(); ++i) {
    EXPECT_EQ(replayed.violations[i].invariant, live.violations[i].invariant);
    EXPECT_EQ(replayed.violations[i].node, live.violations[i].node);
    const Json& recorded = bundle.violations.at(i);
    ASSERT_NE(recorded.find("invariant"), nullptr);
    EXPECT_EQ(recorded.find("invariant")->as_string(),
              to_string(live.violations[i].invariant));
  }
}

TEST(InspectShedTest, ShedDropsAttributedInGoldenBundle) {
  TelemetryGuard guard;
  WorkloadParams params;
  params.peers = 40;
  params.seed = 23;
  EngineConfig config;
  config.seed = 23;
  Engine engine(generate_workload(WorkloadKind::kBiUnCorr, params), config);
  ASSERT_TRUE(engine.run_until_converged(3000).has_value());

  telemetry::FlightRecorder::Config capacity;
  capacity.span_capacity = 1 << 20;
  capacity.event_capacity = 1 << 20;
  telemetry::FlightRecorder recorder(capacity);
  recorder.set_repro(23, "--peers 40 --seed 23");
  recorder.note_snapshot(0.0, to_snapshot(engine.overlay()));

  // A starved relay budget with shedding on: overload spans must be
  // recorded with the "shed" cause, distinct from plain push loss, and
  // the inspect queries must surface them.
  feed::LossyConfig lossy;
  lossy.base.seed = 23;
  lossy.base.capacity.relay_budget = 1;
  lossy.base.capacity.shedding = true;
  lossy.push_loss = 0.1;
  lossy.enable_recovery = true;
  lossy.repair = feed::RepairMode::kNack;
  const auto report =
      feed::run_lossy_dissemination(engine.overlay(), lossy, 60.0);
  ASSERT_GT(report.shed_pushes, 0u);

  TempFile file("test_inspect_shed.json");
  ASSERT_TRUE(recorder.dump(file.path(), "shed-golden"));
  tools::Bundle bundle;
  std::string error;
  ASSERT_TRUE(tools::load_bundle(file.path(), bundle, &error)) << error;

  std::size_t shed_spans = 0;
  for (const auto& [cause, count] : tools::drop_causes(bundle))
    if (cause == "shed") shed_spans = count;
  EXPECT_EQ(shed_spans, report.shed_pushes);
  EXPECT_NE(tools::summary(bundle).find("shed: "), std::string::npos);
}

TEST(InspectJsonlTest, LoadsRawSpanStream) {
  // A --spans-out style stream (no bundle wrapper) must load too.
  TempFile file("test_inspect_spans.jsonl");
  {
    std::ofstream out(file.path());
    out << R"({"kind":"span","schema":"lagover.spans.v1","item":1,)"
        << R"("span":"publish","node":0,"hop":0,"published_at":1.0,)"
        << R"("start":1.0,"ts":1.0})"
        << "\n";
    out << R"({"kind":"span","schema":"lagover.spans.v1","item":1,)"
        << R"("span":"deliver","node":3,"parent":0,"hop":1,)"
        << R"("published_at":1.0,"start":1.0,"ts":2.0,"deadline":4.0})"
        << "\n";
    // An item id no integer holds: it reads as the fallback, 0.
    out << R"({"kind":"span","schema":"lagover.spans.v1","item":1e300,)"
        << R"("span":"deliver","node":5,"parent":3,"hop":2,)"
        << R"("published_at":1.0,"start":2.0,"ts":3.0,"deadline":4.0})"
        << "\n";
  }
  tools::Bundle bundle;
  std::string error;
  ASSERT_TRUE(tools::load_bundle(file.path(), bundle, &error)) << error;
  EXPECT_FALSE(bundle.is_postmortem());
  ASSERT_EQ(bundle.spans.size(), 3u);
  EXPECT_EQ(bundle.spans[2].item, 0u);
  EXPECT_EQ(bundle.spans[2].node, 5u);
  EXPECT_EQ(bundle.spans[2].parent, 3u);
  const auto result = tools::item_path(bundle, 1, 3);
  EXPECT_TRUE(result.complete) << result.note;
  EXPECT_EQ(result.hops.size(), 2u);
}

}  // namespace
}  // namespace lagover
