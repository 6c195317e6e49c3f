// Tests for the performance observability layer (telemetry/perf):
// PerfRecorder determinism, the invariant that an active recorder
// changes no engine decision (byte-identical overlays with perf on
// vs off, for both greedy and hybrid construction), allocation-hook
// pairing, RSS monotonicity, re-entrant phase accounting, and the
// shape of the "lagover.perf.v1" JSON section.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/snapshot.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/perf.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/constraints.hpp"

namespace lagover {
namespace {

/// Scoped telemetry enable that restores the previous state and leaves
/// the global registries clean (mirrors test_telemetry.cpp).
class TelemetryGuard {
 public:
  explicit TelemetryGuard(bool on) : previous_(telemetry::enabled()) {
    telemetry::MetricsRegistry::instance().reset();
    telemetry::Profiler::instance().reset();
    telemetry::set_enabled(on);
  }
  ~TelemetryGuard() {
    telemetry::set_enabled(previous_);
    telemetry::MetricsRegistry::instance().reset();
    telemetry::Profiler::instance().reset();
  }

 private:
  bool previous_;
};

/// Scoped recorder activation; deactivates and detaches on exit.
class RecorderGuard {
 public:
  RecorderGuard() : recorder_(std::make_unique<telemetry::PerfRecorder>()) {
    telemetry::PerfRecorder::set_active(recorder_.get());
  }
  ~RecorderGuard() { telemetry::PerfRecorder::set_active(nullptr); }

  telemetry::PerfRecorder& recorder() { return *recorder_; }

 private:
  std::unique_ptr<telemetry::PerfRecorder> recorder_;
};

Population rand_population(std::size_t peers, std::uint64_t seed = 11) {
  WorkloadParams params;
  params.peers = peers;
  params.seed = seed;
  return generate_workload(WorkloadKind::kRand, params);
}

std::string converged_snapshot(AlgorithmKind algorithm) {
  EngineConfig config;
  config.algorithm = algorithm;
  config.seed = 23;
  Engine engine(rand_population(48), config);
  engine.run_until_converged(3000);
  return to_snapshot(engine.overlay());
}

// ------------------------------------------------------------ recorder

TEST(PerfRecorderTest, RoundAndMessageDeltasAreDeterministic) {
  std::uint64_t rounds[2] = {0, 0};
  std::uint64_t messages[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    TelemetryGuard guard(true);
    RecorderGuard active;
    EngineConfig config;
    config.seed = 5;
    Engine engine(rand_population(40), config);
    engine.run_until_converged(3000);
    active.recorder().finish();
    rounds[run] = active.recorder().total_rounds();
    messages[run] = active.recorder().total_messages();
  }
  EXPECT_GT(rounds[0], 0u);
  EXPECT_GT(messages[0], 0u);
  EXPECT_EQ(rounds[0], rounds[1]);
  EXPECT_EQ(messages[0], messages[1]);
}

TEST(PerfRecorderTest, ActiveRecorderChangesNoEngineDecision) {
  for (const AlgorithmKind algorithm :
       {AlgorithmKind::kGreedy, AlgorithmKind::kHybrid}) {
    std::string without;
    {
      TelemetryGuard guard(false);
      without = converged_snapshot(algorithm);
    }
    std::string with;
    {
      TelemetryGuard guard(true);
      RecorderGuard active;
      telemetry::set_alloc_tracking(true);
      with = converged_snapshot(algorithm);
      telemetry::set_alloc_tracking(false);
    }
    EXPECT_EQ(without, with) << "algorithm " << static_cast<int>(algorithm);
  }
}

TEST(PerfRecorderTest, PhasesAccumulateAcrossReentry) {
  TelemetryGuard guard(true);
  RecorderGuard active;
  telemetry::PerfRecorder& recorder = active.recorder();
  {
    // Outer and inner same-name scopes — as happens when a bench-local
    // "construction" scope wraps run_until_converged (itself marked).
    const telemetry::PerfPhase outer("construction");
    const telemetry::PerfPhase inner("construction");
    EngineConfig config;
    config.seed = 3;
    Engine engine(rand_population(24), config);
    engine.run_until_converged(2000);
  }
  recorder.finish();
  // phases() snapshots under the recorder lock; hold the copy.
  const std::vector<telemetry::PerfPhaseStats> phases = recorder.phases();
  ASSERT_EQ(phases.size(), 1u);
  const telemetry::PerfPhaseStats& phase = phases.front();
  EXPECT_EQ(phase.name, "construction");
  EXPECT_GT(phase.rounds, 0u);
  // Nested same-name scopes must count once, not twice: the phase's
  // rounds can never exceed the run total.
  EXPECT_LE(phase.rounds, recorder.total_rounds());
  EXPECT_LE(phase.messages, recorder.total_messages());
}

TEST(PerfRecorderTest, UnmatchedPhaseEndIsIgnored) {
  TelemetryGuard guard(true);
  RecorderGuard active;
  active.recorder().phase_end("never_opened");
  active.recorder().finish();
  EXPECT_TRUE(active.recorder().phases().empty());
}

TEST(PerfRecorderTest, FinishClosesOpenPhases) {
  TelemetryGuard guard(true);
  RecorderGuard active;
  active.recorder().phase_begin("construction");
  active.recorder().phase_begin("construction");  // nested, left open
  active.recorder().finish();
  ASSERT_EQ(active.recorder().phases().size(), 1u);
  EXPECT_EQ(active.recorder().phases().front().name, "construction");
}

TEST(PerfRecorderTest, PerfPhaseIsInertWithoutActiveRecorder) {
  TelemetryGuard guard(true);
  ASSERT_EQ(telemetry::PerfRecorder::active(), nullptr);
  const telemetry::PerfPhase phase("construction");  // must not crash
}

TEST(PerfRecorderTest, ToJsonCarriesSchemaAndRequiredKeys) {
  TelemetryGuard guard(true);
  RecorderGuard active;
  {
    const telemetry::PerfPhase phase("construction");
    EngineConfig config;
    config.seed = 9;
    Engine engine(rand_population(24), config);
    engine.run_until_converged(2000);
  }
  active.recorder().note_micro("BM_Example/16", 42.0, 41.0);
  const Json perf = active.recorder().to_json();
  const std::string text = perf.dump_pretty();
  for (const char* key :
       {"\"schema\": \"lagover.perf.v1\"", "\"wall_time_s\"",
        "\"peak_rss_kb\"", "\"rounds\"", "\"rounds_per_sec\"",
        "\"messages\"", "\"messages_per_round\"", "\"alloc\"",
        "\"phases\"", "\"construction\"", "\"scopes\"", "\"micro\"",
        "\"BM_Example/16\""}) {
    EXPECT_NE(text.find(key), std::string::npos) << "missing " << key;
  }
}

// ---------------------------------------------------------- alloc hook

TEST(AllocHookTest, PairsAllocationsWithFrees) {
  if (!telemetry::alloc_hook_compiled()) GTEST_SKIP();
  telemetry::set_alloc_tracking(true);
  const telemetry::AllocStats before = telemetry::alloc_stats();
  {
    std::vector<std::unique_ptr<std::string>> scratch;
    for (int i = 0; i < 64; ++i)
      scratch.push_back(std::make_unique<std::string>(
          "a string long enough to defeat the small-string optimization"));
  }
  const telemetry::AllocStats after = telemetry::alloc_stats();
  telemetry::set_alloc_tracking(false);
  const std::uint64_t allocs = after.allocs - before.allocs;
  const std::uint64_t frees = after.frees - before.frees;
  EXPECT_GE(allocs, 128u);  // 64 unique_ptrs + 64 heap string buffers
  EXPECT_GE(after.bytes - before.bytes, 64u * 32u);
  // Everything allocated in the scope was freed in the scope; the
  // vector itself may add a few paired reallocations.
  EXPECT_EQ(allocs, frees);
}

TEST(AllocHookTest, TrackingOffFreezesCounters) {
  if (!telemetry::alloc_hook_compiled()) GTEST_SKIP();
  telemetry::set_alloc_tracking(false);
  const telemetry::AllocStats before = telemetry::alloc_stats();
  { const std::vector<int> scratch(1024, 7); }
  const telemetry::AllocStats after = telemetry::alloc_stats();
  EXPECT_EQ(before.allocs, after.allocs);
  EXPECT_EQ(before.bytes, after.bytes);
}

// ----------------------------------------------------------------- rss

TEST(RssTest, PeakIsMonotonicAndAboveCurrent) {
  const std::uint64_t peak_before = telemetry::peak_rss_bytes();
  if (peak_before == 0) GTEST_SKIP();  // no RSS source on this platform
  // Touch a real chunk of memory; the high-water mark must not drop.
  std::vector<char> ballast(8 << 20, 1);
  for (std::size_t i = 0; i < ballast.size(); i += 4096) ballast[i] = 2;
  // Current before peak: the process may grow between the two reads
  // (ASan's allocator does), and the later read must be the peak.
  const std::uint64_t current = telemetry::current_rss_bytes();
  const std::uint64_t peak_after = telemetry::peak_rss_bytes();
  EXPECT_GE(peak_after, peak_before);
  if (current != 0) {
    EXPECT_GE(peak_after, current);
  }
}

// --------------------------------------------------- span fast path

telemetry::ItemSpan receipt_span(double ts) {
  telemetry::ItemSpan span;
  span.item = 1;
  span.kind = telemetry::SpanKind::kDeliver;
  span.node = 2;
  span.published_at = 0.0;
  span.deadline = 10.0;
  span.ts = ts;
  return span;
}

TEST(SpanFastPathTest, CachedMetricsSurviveRegistryReset) {
  // record_span caches Counter/histogram pointers once per process;
  // the registry contract (reset zeroes in place, never erases) must
  // keep them valid and rebound to the same names after a reset.
  TelemetryGuard guard(true);
  telemetry::record_span(receipt_span(1.0));
  telemetry::MetricsRegistry::instance().reset();
  telemetry::record_span(receipt_span(2.0));
  telemetry::record_span(receipt_span(3.0));
  const telemetry::MetricsRegistry& registry =
      telemetry::MetricsRegistry::instance();
  ASSERT_TRUE(registry.has_counter("span.deliver"));
  std::uint64_t delivers = 0;
  registry.for_each_counter(
      [&](const std::string& name, const telemetry::Counter& counter) {
        if (name == "span.deliver") delivers = counter.value();
      });
  EXPECT_EQ(delivers, 2u);  // the pre-reset record was zeroed away
}

}  // namespace
}  // namespace lagover
