// Tests for the telemetry substrate: event bus semantics, metrics
// registry (log-histogram boundaries, merge, reset), profiler
// aggregation, the per-round sampler, the exporters, and — most
// importantly — the invariant that enabling telemetry changes no
// engine decision (identical overlays for identical seeds).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/async_engine.hpp"
#include "core/engine.hpp"
#include "fault/fault_injector.hpp"
#include "feed/dissemination.hpp"
#include "telemetry/event_bus.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/constraints.hpp"

namespace lagover {
namespace {

/// Scoped telemetry enable that restores the previous state and leaves
/// the global registries clean.
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

// ---------------------------------------------------------------- bus

TEST(EventBusTest, FanOutToAllSubscribers) {
  telemetry::EventBus<int> bus;
  std::vector<int> a;
  std::vector<int> b;
  bus.subscribe([&](const int& v) { a.push_back(v); });
  bus.subscribe([&](const int& v) { b.push_back(v); });
  bus.publish(1);
  bus.publish(2);
  EXPECT_EQ(a, (std::vector<int>{1, 2}));
  EXPECT_EQ(b, (std::vector<int>{1, 2}));
  EXPECT_EQ(bus.published(), 2u);
}

TEST(EventBusTest, UnsubscribeStopsDelivery) {
  telemetry::EventBus<int> bus;
  std::vector<int> got;
  const auto id = bus.subscribe([&](const int& v) { got.push_back(v); });
  bus.publish(1);
  EXPECT_TRUE(bus.unsubscribe(id));
  EXPECT_FALSE(bus.unsubscribe(id));  // double-unsubscribe is a no-op
  bus.publish(2);
  EXPECT_EQ(got, std::vector<int>{1});
  EXPECT_FALSE(bus.has_subscribers());
}

// ----------------------------------------------------------- metrics

TEST(LogHistogramTest, BucketBoundariesAreHalfOpen) {
  telemetry::LogHistogram h(1.0, 2.0, 4);  // [1,2) [2,4) [4,8) [8,16)
  h.add(1.0);   // exactly the first lower bound
  h.add(2.0);   // exactly a boundary: belongs to [2,4), not [1,2)
  h.add(3.999);
  h.add(4.0);
  h.add(15.999);
  EXPECT_EQ(h.count_in_bucket(0), 1u);
  EXPECT_EQ(h.count_in_bucket(1), 2u);
  EXPECT_EQ(h.count_in_bucket(2), 1u);
  EXPECT_EQ(h.count_in_bucket(3), 1u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_DOUBLE_EQ(h.bucket_lower(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_upper(1), 4.0);
}

TEST(LogHistogramTest, UnderflowAndOverflow) {
  telemetry::LogHistogram h(1.0, 2.0, 3);  // covers [1, 8)
  h.add(0.0);
  h.add(-5.0);
  h.add(0.999);
  h.add(8.0);  // first value past the top
  h.add(1e9);
  EXPECT_EQ(h.underflow(), 3u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
}

TEST(LogHistogramTest, ExactAggregatesAndPercentileBounds) {
  telemetry::LogHistogram h;
  for (double v : {1.0, 2.0, 4.0, 8.0, 16.0}) h.add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 31.0);
  EXPECT_DOUBLE_EQ(h.mean(), 6.2);
  // Quantiles are approximations, but must stay within [min, max] and
  // be monotone in q.
  const double p10 = h.percentile(0.10);
  const double p50 = h.percentile(0.50);
  const double p99 = h.percentile(0.99);
  EXPECT_GE(p10, h.min());
  EXPECT_LE(p99, h.max());
  EXPECT_LE(p10, p50);
  EXPECT_LE(p50, p99);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), h.min());
  EXPECT_DOUBLE_EQ(h.percentile(1.0), h.max());
}

TEST(LogHistogramTest, PercentileOfEmptyIsZero) {
  telemetry::LogHistogram h;
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(LogHistogramTest, MergeAndReset) {
  telemetry::LogHistogram a(1.0, 2.0, 8);
  telemetry::LogHistogram b(1.0, 2.0, 8);
  a.add(1.5);
  a.add(300.0);  // overflow for 8 buckets ([1, 256))
  b.add(3.0);
  b.add(0.5);  // underflow
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.sum(), 305.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  EXPECT_DOUBLE_EQ(a.max(), 300.0);
  EXPECT_EQ(a.underflow(), 1u);
  EXPECT_EQ(a.overflow(), 1u);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.sum(), 0.0);
  EXPECT_EQ(a.underflow(), 0u);
  EXPECT_EQ(a.bucket_count(), 8u);  // geometry survives
}

TEST(MetricsRegistryTest, StableReferencesAcrossResetAndInsertions) {
  telemetry::MetricsRegistry registry;
  telemetry::Counter& c = registry.counter("a");
  c.inc(3);
  // Later insertions and reset() must not move or drop the entry.
  for (int i = 0; i < 100; ++i)
    registry.counter("filler_" + std::to_string(i));
  EXPECT_EQ(&c, &registry.counter("a"));
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_TRUE(registry.has_counter("a"));
}

TEST(MetricsRegistryTest, MergeFromAddsCountersAndHistograms) {
  telemetry::MetricsRegistry a;
  telemetry::MetricsRegistry b;
  a.counter("shared").inc(2);
  b.counter("shared").inc(5);
  b.counter("only_b").inc(1);
  a.gauge("g").set(1.0);
  b.gauge("g").set(9.0);
  a.histogram("h").add(2.0);
  b.histogram("h").add(4.0);
  a.merge_from(b);
  EXPECT_EQ(a.counter("shared").value(), 7u);
  EXPECT_EQ(a.counter("only_b").value(), 1u);
  EXPECT_DOUBLE_EQ(a.gauge("g").value(), 9.0);  // last-written-wins
  EXPECT_EQ(a.histogram("h").count(), 2u);
}

TEST(MetricsRegistryTest, MacrosAreInertWhenDisabled) {
  TelemetryGuard guard(false);
  TELEM_COUNT("macro.test_counter", 1);
  TELEM_GAUGE("macro.test_gauge", 5.0);
  TELEM_HIST("macro.test_hist", 5.0);
  auto& registry = telemetry::MetricsRegistry::instance();
  EXPECT_FALSE(registry.has_counter("macro.test_counter"));
  EXPECT_FALSE(registry.has_gauge("macro.test_gauge"));
  EXPECT_FALSE(registry.has_histogram("macro.test_hist"));
}

TEST(MetricsRegistryTest, ToJsonCarriesSchemaAndValues) {
  telemetry::MetricsRegistry registry;
  registry.counter("c").inc(2);
  registry.gauge("g").set(1.5);
  registry.histogram("h").add(3.0);
  const std::string json = registry.to_json().dump();
  EXPECT_NE(json.find("lagover.metrics.v1"), std::string::npos);
  EXPECT_NE(json.find("\"c\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// ---------------------------------------------------------- profiler

TEST(ProfilerTest, ScopesAggregateWhenEnabled) {
  TelemetryGuard guard(true);
  for (int i = 0; i < 3; ++i) {
    TELEM_SCOPE("test.scope");
  }
  const telemetry::ProfileSite& site =
      telemetry::Profiler::instance().site("test.scope");
  EXPECT_EQ(site.calls, 3u);
}

TEST(ProfilerTest, ScopesFreeWhenDisabled) {
  TelemetryGuard guard(false);
  {
    TELEM_SCOPE("test.disabled_scope");
  }
  const telemetry::ProfileSite& site =
      telemetry::Profiler::instance().site("test.disabled_scope");
  EXPECT_EQ(site.calls, 0u);
}

// ----------------------------------------------------------- sampler

TEST(TimeseriesSamplerTest, SamplesAndRestartsOnClockRewind) {
  TelemetryGuard guard(true);
  auto& registry = telemetry::MetricsRegistry::instance();
  telemetry::TimeseriesSampler sampler;
  registry.counter("s.c").inc(1);
  sampler.sample(1.0);
  registry.counter("s.c").inc(1);
  sampler.sample(2.0);
  ASSERT_EQ(sampler.series().count("s.c"), 1u);
  EXPECT_EQ(sampler.series().at("s.c").size(), 2u);
  // A second trial restarts the sim clock; the series restarts too
  // (TimeSeries requires non-decreasing timestamps).
  sampler.sample(1.0);
  EXPECT_EQ(sampler.series().at("s.c").size(), 1u);
}

// --------------------------------------------------------- exporters

TEST(ExportTest, JsonlWriterStreamsEventsAndLogs) {
  TelemetryGuard guard(true);
  const std::string path = "test_telemetry_events.jsonl";
  {
    telemetry::JsonlEventWriter writer(path);
    ASSERT_TRUE(writer.ok());
    telemetry::event_bus().publish(
        {1, TraceEventType::kInteraction, 3, 4, true, 1.5, 1});
    telemetry::log_bus().publish({1.5, 10, 2, "hello \"quoted\""});
    EXPECT_EQ(writer.lines(), 2u);
  }
  std::ifstream in(path);
  std::string line1;
  std::string line2;
  ASSERT_TRUE(std::getline(in, line1));
  ASSERT_TRUE(std::getline(in, line2));
  EXPECT_NE(line1.find("\"interaction\""), std::string::npos);
  EXPECT_NE(line2.find("\"log\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ExportTest, ChromeTraceWriterProducesLoadableJson) {
  TelemetryGuard guard(true);
  const std::string path = "test_telemetry_trace.json";
  {
    telemetry::ChromeTraceWriter writer;
    telemetry::event_bus().publish(
        {2, TraceEventType::kCrash, 7, 0, false, 2.0, 1});
    {
      TELEM_SCOPE("test.traced_scope");
    }
    // 3 metadata (sim/wall/item pids) + 1 instant + 1 complete
    EXPECT_EQ(writer.event_count(), 5u);
    ASSERT_TRUE(writer.write(path));
  }
  // The sink must be restored after the writer dies.
  EXPECT_EQ(telemetry::Profiler::instance().sink(), nullptr);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string trace = buffer.str();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(trace.find("process_name"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ExportTest, MetricsSummaryJsonEmbedsProfileAndTimeseries) {
  TelemetryGuard guard(true);
  TELEM_COUNT("summary.counter", 2);
  telemetry::TimeseriesSampler sampler;
  sampler.sample(1.0);
  const std::string json =
      telemetry::metrics_summary_json(&sampler).dump();
  EXPECT_NE(json.find("lagover.metrics.v1"), std::string::npos);
  EXPECT_NE(json.find("\"profile\""), std::string::npos);
  EXPECT_NE(json.find("\"timeseries\""), std::string::npos);
  EXPECT_NE(json.find("summary.counter"), std::string::npos);
}

// ------------------------------------------------- engine integration

Population small_population(std::uint64_t seed) {
  WorkloadParams params;
  params.peers = 40;
  params.seed = seed;
  return generate_workload(WorkloadKind::kBiUnCorr, params);
}

std::vector<NodeId> parent_snapshot(const Overlay& overlay) {
  std::vector<NodeId> parents;
  for (NodeId id = 1; id < overlay.node_count(); ++id)
    parents.push_back(overlay.parent(id));
  return parents;
}

TEST(TelemetryIntegrationTest, EnablingTelemetryChangesNoDecision) {
  // Same seed, telemetry off vs on: the final overlay must be
  // byte-identical (telemetry consumes no RNG and gates every effect).
  std::vector<NodeId> off_parents;
  Round off_round = 0;
  {
    TelemetryGuard guard(false);
    EngineConfig config;
    config.seed = 11;
    Engine engine(small_population(11), config);
    engine.run_until_converged(500);
    off_parents = parent_snapshot(engine.overlay());
    off_round = engine.round();
  }
  {
    TelemetryGuard guard(true);
    EngineConfig config;
    config.seed = 11;
    Engine engine(small_population(11), config);
    engine.run_until_converged(500);
    EXPECT_EQ(parent_snapshot(engine.overlay()), off_parents);
    EXPECT_EQ(engine.round(), off_round);
    // And the run actually recorded something.
    EXPECT_GT(telemetry::MetricsRegistry::instance()
                  .counter("engine.rounds")
                  .value(),
              0u);
  }
}

TEST(TelemetryIntegrationTest, TraceBusFeedsMultipleSubscribers) {
  EngineConfig config;
  config.seed = 5;
  Engine engine(small_population(5), config);
  std::size_t seen_a = 0;
  std::size_t seen_b = 0;
  engine.trace_bus().subscribe([&](const TraceEvent&) { ++seen_a; });
  engine.trace_bus().subscribe([&](const TraceEvent&) { ++seen_b; });
  engine.run_until_converged(500);
  EXPECT_GT(seen_a, 0u);
  EXPECT_EQ(seen_a, seen_b);
}

TEST(TelemetryIntegrationTest, AsyncTraceBusSurvivesSetOracle) {
  // Regression: AsyncEngine::set_oracle used to rebuild the core
  // without re-installing the trace observer, silently losing it.
  AsyncConfig config;
  config.seed = 9;
  AsyncEngine engine(small_population(9), config);
  std::size_t seen = 0;
  engine.trace_bus().subscribe([&](const TraceEvent&) { ++seen; });
  engine.set_oracle(make_oracle(OracleKind::kRandomDelay));
  engine.run_until_converged(500.0);
  EXPECT_GT(seen, 0u);
}

TEST(TelemetryIntegrationTest, EventsCarryEpochAndCause) {
  TelemetryGuard guard(true);
  fault::FaultPlan plan;
  plan.add(fault::FaultPlan::crashes(5.0, 30.0, 0.04, 4.0))
      .add(fault::FaultPlan::drop(10.0, 50.0, 0.9));
  AsyncConfig config;
  config.seed = 33;
  config.faults = std::make_shared<fault::FaultInjector>(plan, 33);
  AsyncEngine engine(small_population(33), config);
  bool saw_cause = false;
  bool saw_epoch = false;
  engine.trace_bus().subscribe([&](const TraceEvent& event) {
    if (event.type == TraceEventType::kParentLost &&
        std::string(event.cause) == "missed_polls")
      saw_cause = true;
    if (event.epoch > health::kNoEpoch) saw_epoch = true;
  });
  engine.run_for(60.0);
  EXPECT_TRUE(saw_cause);
  EXPECT_TRUE(saw_epoch);
}

// -------------------------------------------------------------- spans

/// Scoped span-bus subscription that collects everything published and
/// guarantees the global bus is clean again when the test ends.
class SpanCollector {
 public:
  SpanCollector()
      : id_(telemetry::span_bus().subscribe(
            [this](const telemetry::ItemSpan& span) {
              spans.push_back(span);
            })) {}
  ~SpanCollector() { telemetry::span_bus().unsubscribe(id_); }
  std::vector<telemetry::ItemSpan> spans;

 private:
  telemetry::SpanBus::SubscriptionId id_;
};

/// 0 -> 1 -> 2 chain; node 2's budget (l=1) is deliberately violated by
/// its depth, so every push to it arrives late.
Population chain_population() {
  Population p;
  p.source_fanout = 1;
  p.consumers = {NodeSpec{1, Constraints{1, 2}},
                 NodeSpec{2, Constraints{0, 1}}};
  return p;
}

TEST(SpanTest, RecordSpanIsInertWhenDisabled) {
  TelemetryGuard guard(false);
  SpanCollector collector;
  telemetry::ItemSpan span;
  span.item = 1;
  span.kind = telemetry::SpanKind::kDeliver;
  span.node = 2;
  span.deadline = 1.0;
  span.ts = 5.0;
  telemetry::record_span(span);
  EXPECT_TRUE(collector.spans.empty());
  EXPECT_FALSE(telemetry::MetricsRegistry::instance().has_counter(
      "span.deliver"));
}

TEST(SpanTest, ReceiptSpansFeedDeliveryLatencyAndDeadlineMisses) {
  TelemetryGuard guard(true);
  telemetry::ItemSpan span;
  span.item = 1;
  span.kind = telemetry::SpanKind::kDeliver;
  span.node = 2;
  span.published_at = 1.0;
  span.deadline = 1.0;
  span.ts = 3.0;  // latency 2 > budget 1: a miss
  telemetry::record_span(span);
  span.ts = 1.5;  // latency 0.5: on time
  telemetry::record_span(span);
  span.kind = telemetry::SpanKind::kRelay;  // not a receipt
  span.ts = 9.0;
  telemetry::record_span(span);
  auto& registry = telemetry::MetricsRegistry::instance();
  EXPECT_EQ(registry.histogram("feed.delivery_latency").count(), 2u);
  EXPECT_EQ(registry.counter("feed.deadline_misses").value(), 1u);
  EXPECT_EQ(registry.counter("span.deliver").value(), 2u);
  EXPECT_EQ(registry.counter("span.relay").value(), 1u);
}

TEST(SpanTest, MissedDeadlineUsesFeedSlack) {
  EXPECT_FALSE(telemetry::missed_deadline(0.0, 2.0, 2.0));
  EXPECT_TRUE(telemetry::missed_deadline(0.0, 2.0 + 1e-6, 2.0));
  EXPECT_FALSE(telemetry::missed_deadline(0.0, 99.0, -1.0));  // no budget
}

TEST(SpanIntegrationTest, DisseminationEmitsCompleteChains) {
  TelemetryGuard guard(true);
  SpanCollector collector;
  Overlay overlay(chain_population());
  overlay.attach(1, kSourceId);
  overlay.attach(2, 1);
  feed::DisseminationConfig config;
  const auto report = feed::run_dissemination(overlay, config, 10.0);
  ASSERT_GT(report.items_published, 0u);

  std::size_t publishes = 0;
  std::size_t polls = 0;
  std::size_t delivers = 0;
  for (const auto& span : collector.spans) {
    switch (span.kind) {
      case telemetry::SpanKind::kPublish:
        ++publishes;
        EXPECT_EQ(span.node, kSourceId);
        EXPECT_EQ(span.hop, 0u);
        break;
      case telemetry::SpanKind::kSourcePoll:
        ++polls;
        EXPECT_EQ(span.node, 1u);
        EXPECT_EQ(span.parent, kSourceId);
        EXPECT_EQ(span.hop, 1u);
        EXPECT_DOUBLE_EQ(span.deadline, 2.0);
        break;
      case telemetry::SpanKind::kDeliver:
        ++delivers;
        EXPECT_EQ(span.node, 2u);
        EXPECT_EQ(span.parent, 1u);  // parent span exists: causal chain
        EXPECT_EQ(span.hop, 2u);
        EXPECT_DOUBLE_EQ(span.deadline, 1.0);
        EXPECT_GE(span.ts, span.start);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(publishes, report.items_published);
  EXPECT_GT(polls, 0u);
  EXPECT_GT(delivers, 0u);
}

TEST(SpanIntegrationTest, ViolatedBudgetCountsDeadlineMisses) {
  TelemetryGuard guard(true);
  SpanCollector collector;
  Overlay overlay(chain_population());
  overlay.attach(1, kSourceId);
  overlay.attach(2, 1);  // depth 2 > node 2's budget of 1
  feed::DisseminationConfig config;
  feed::run_dissemination(overlay, config, 20.0);

  // The counter must agree exactly with a re-derivation from the spans
  // themselves — this is the contract lagover_inspect laggards relies on.
  std::uint64_t expected = 0;
  for (const auto& span : collector.spans)
    if ((span.kind == telemetry::SpanKind::kSourcePoll ||
         span.kind == telemetry::SpanKind::kDeliver ||
         span.kind == telemetry::SpanKind::kRepair) &&
        telemetry::missed_deadline(span.published_at, span.ts,
                                   span.deadline))
      ++expected;
  EXPECT_GT(expected, 0u);  // the chain really does violate node 2
  EXPECT_EQ(telemetry::MetricsRegistry::instance()
                .counter("feed.deadline_misses")
                .value(),
            expected);
}

TEST(SpanIntegrationTest, DisabledTelemetryLeavesReportIdentical) {
  // The span instrumentation must not perturb the simulation: the same
  // dissemination with telemetry off and on yields the same report, and
  // with telemetry off the span bus stays silent.
  auto run = [] {
    Overlay overlay(chain_population());
    overlay.attach(1, kSourceId);
    overlay.attach(2, 1);
    feed::DisseminationConfig config;
    return feed::run_dissemination(overlay, config, 15.0);
  };
  feed::DisseminationReport off;
  feed::DisseminationReport on;
  std::size_t off_spans = 0;
  {
    TelemetryGuard guard(false);
    SpanCollector collector;
    off = run();
    off_spans = collector.spans.size();
  }
  {
    TelemetryGuard guard(true);
    on = run();
  }
  EXPECT_EQ(off_spans, 0u);
  EXPECT_EQ(off.items_published, on.items_published);
  EXPECT_EQ(off.push_messages, on.push_messages);
  EXPECT_EQ(off.source_requests, on.source_requests);
  EXPECT_EQ(off.violations, on.violations);
}

TEST(TelemetryIntegrationTest, OverlayMutatorsEmitEdgeEvents) {
  TelemetryGuard guard(true);
  std::vector<std::string> names;
  std::vector<double> times;
  const auto sub = telemetry::event_bus().subscribe(
      [&](const TraceEvent& event) {
        names.push_back(to_string(event.type));
        times.push_back(event.when);
      });
  // A bare overlay (a snapshot, a witness) publishes nothing.
  Overlay bare(chain_population());
  bare.attach(1, kSourceId);
  bare.set_offline(1);
  EXPECT_TRUE(names.empty());

  // A runtime-owned one publishes every change, stamped by the
  // runtime's clock, not by the process-wide sim_now().
  telemetry::note_sim_time(99.0);
  RuntimeConfig config;
  NodeRuntime runtime(chain_population(), config, /*timeout_limit=*/4);
  runtime.advance_to(3.0);
  Overlay& overlay = runtime.overlay();
  overlay.attach(1, kSourceId);
  overlay.attach(2, 1);
  overlay.set_offline(2);  // emits the edge_detach AND node_offline
  overlay.set_online(2);
  // Copies drop the outlet.
  Overlay copy(overlay);
  copy.attach(2, 1);
  telemetry::event_bus().unsubscribe(sub);
  EXPECT_EQ(names, (std::vector<std::string>{"edge_attach", "edge_attach",
                                             "edge_detach", "node_offline",
                                             "node_online"}));
  EXPECT_EQ(times, std::vector<double>(5, 3.0));
}

TEST(TraceEventTest, TypeNamesAreStable) {
  EXPECT_STREQ(to_string(TraceEventType::kInteraction), "interaction");
  EXPECT_STREQ(to_string(TraceEventType::kEpochFenced), "epoch_fenced");
  EXPECT_STREQ(to_string(TraceEventType::kFailoverAttach),
               "failover_attach");
  EXPECT_STREQ(to_string(TraceEventType::kEdgeAttach), "edge_attach");
  EXPECT_STREQ(to_string(TraceEventType::kNodeOnline), "node_online");
  EXPECT_FALSE(telemetry::structural(TraceEventType::kParentQuarantined));
  EXPECT_TRUE(telemetry::structural(TraceEventType::kEdgeAttach));
  EXPECT_TRUE(telemetry::structural(TraceEventType::kNodeOnline));
}

}  // namespace
}  // namespace lagover
