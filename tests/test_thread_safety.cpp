// Multi-threaded smoke tests for the telemetry core: hammer the
// metrics registry, the span/event buses, the profiler, the perf
// recorder, and the logger level from many threads at once and assert
// no update is lost. Single-threaded correctness lives in
// test_telemetry.cpp / test_perf.cpp; this file exists to give the
// LAGOVER_GUARDED_BY annotations a dynamic witness — CI runs it under
// ThreadSanitizer, so a missing lock is a test failure, not a latent
// data race. (tests/ is exempt from the raw-thread lint rule for
// exactly this purpose.)
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "telemetry/event_bus.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/perf.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"

namespace lagover {
namespace {

constexpr int kThreads = 8;
constexpr int kIterations = 2000;
constexpr std::uint64_t kTotal =
    static_cast<std::uint64_t>(kThreads) * kIterations;

/// Runs `body(thread_index)` on kThreads threads and joins them all.
void run_threads(const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(body, t);
  for (std::thread& thread : threads) thread.join();
}

/// Scoped telemetry enable that restores the previous state and leaves
/// the global registries clean (mirrors test_telemetry.cpp).
class TelemetryGuard {
 public:
  TelemetryGuard() : previous_(telemetry::enabled()) {
    telemetry::MetricsRegistry::instance().reset();
    telemetry::Profiler::instance().reset();
    telemetry::set_enabled(true);
  }
  ~TelemetryGuard() {
    telemetry::set_enabled(previous_);
    telemetry::MetricsRegistry::instance().reset();
    telemetry::Profiler::instance().reset();
  }

 private:
  bool previous_;
};

TEST(ThreadSafetyTest, CounterIncrementsAreNotLost) {
  TelemetryGuard guard;
  telemetry::Counter& direct =
      telemetry::MetricsRegistry::instance().counter("ts.direct");
  run_threads([&](int) {
    for (int i = 0; i < kIterations; ++i) {
      direct.inc();
      // The macro path adds the magic-static site cache on top.
      TELEM_COUNT("ts.macro", 1);
    }
  });
  EXPECT_EQ(direct.value(), kTotal);
  EXPECT_EQ(telemetry::MetricsRegistry::instance().counter("ts.macro").value(),
            kTotal);
}

TEST(ThreadSafetyTest, GaugeSettlesOnOneWritersValue) {
  TelemetryGuard guard;
  telemetry::Gauge& gauge =
      telemetry::MetricsRegistry::instance().gauge("ts.gauge");
  run_threads([&](int t) {
    for (int i = 0; i < kIterations; ++i)
      gauge.set(static_cast<double>(t + 1));
  });
  const double last = gauge.value();
  EXPECT_GE(last, 1.0);
  EXPECT_LE(last, static_cast<double>(kThreads));
}

TEST(ThreadSafetyTest, HistogramAddsAreNotLost) {
  TelemetryGuard guard;
  telemetry::LogHistogram& hist =
      telemetry::MetricsRegistry::instance().histogram("ts.hist");
  run_threads([&](int) {
    for (int i = 0; i < kIterations; ++i) hist.add(2.5);
  });
  EXPECT_EQ(hist.count(), kTotal);
  EXPECT_DOUBLE_EQ(hist.sum(), 2.5 * static_cast<double>(kTotal));
  EXPECT_DOUBLE_EQ(hist.min(), 2.5);
  EXPECT_DOUBLE_EQ(hist.max(), 2.5);
}

TEST(ThreadSafetyTest, EventBusCountsEveryPublishUnderContention) {
  telemetry::EventBus<int> bus;
  std::atomic<std::uint64_t> delivered{0};
  const auto id =
      bus.subscribe([&](const int&) { delivered.fetch_add(1); });
  run_threads([&](int) {
    for (int i = 0; i < kIterations; ++i) bus.publish(i);
  });
  EXPECT_EQ(bus.published(), kTotal);
  EXPECT_EQ(delivered.load(), kTotal);
  bus.unsubscribe(id);
}

TEST(ThreadSafetyTest, SpanEmissionFeedsBusAndMetrics) {
  TelemetryGuard guard;
  std::atomic<std::uint64_t> seen{0};
  const auto id = telemetry::span_bus().subscribe(
      [&](const telemetry::ItemSpan&) { seen.fetch_add(1); });
  const std::uint64_t published_before = telemetry::span_bus().published();
  run_threads([&](int t) {
    for (int i = 0; i < kIterations; ++i) {
      telemetry::ItemSpan span;
      span.item = static_cast<std::uint64_t>(t) * kIterations + i;
      span.kind = telemetry::SpanKind::kDeliver;
      span.node = static_cast<std::uint32_t>(t + 1);
      span.published_at = 1.0;
      span.ts = 2.0;
      telemetry::record_span(span);
    }
  });
  telemetry::span_bus().unsubscribe(id);
  telemetry::MetricsRegistry& registry =
      telemetry::MetricsRegistry::instance();
  EXPECT_EQ(seen.load(), kTotal);
  EXPECT_EQ(telemetry::span_bus().published() - published_before, kTotal);
  EXPECT_EQ(registry.counter("span.deliver").value(), kTotal);
  EXPECT_EQ(registry.histogram("feed.delivery_latency").count(), kTotal);
  EXPECT_EQ(registry.counter("feed.deadline_misses").value(), 0u);
}

TEST(ThreadSafetyTest, ProfilerScopesAggregateAcrossThreads) {
  TelemetryGuard guard;
  run_threads([&](int) {
    for (int i = 0; i < kIterations; ++i) {
      TELEM_SCOPE("ts.scope");
    }
  });
  telemetry::ProfileSite& site =
      telemetry::Profiler::instance().site("ts.scope");
  EXPECT_EQ(site.calls.load(), kTotal);
  EXPECT_GE(site.total_ns.load(), site.max_ns.load());
}

TEST(ThreadSafetyTest, PerfRecorderPhasesFromManyThreads) {
  TelemetryGuard guard;
  telemetry::PerfRecorder recorder;
  telemetry::PerfRecorder::set_active(&recorder);
  run_threads([&](int t) {
    const std::string phase = "ts.phase." + std::to_string(t);
    for (int i = 0; i < kIterations / 10; ++i) {
      // set_active's release store must be visible here.
      ASSERT_EQ(telemetry::PerfRecorder::active(), &recorder);
      recorder.phase_begin(phase);
      recorder.phase_end(phase);
    }
  });
  telemetry::PerfRecorder::set_active(nullptr);
  recorder.finish();
  const std::vector<telemetry::PerfPhaseStats> phases = recorder.phases();
  ASSERT_EQ(phases.size(), static_cast<std::size_t>(kThreads));
  for (const telemetry::PerfPhaseStats& phase : phases)
    EXPECT_EQ(phase.name.rfind("ts.phase.", 0), 0u) << phase.name;
}

TEST(ThreadSafetyTest, LoggerLevelTogglesWithoutTearing) {
  const LogLevel before = Logger::instance().level();
  Logger::instance().set_level(LogLevel::kOff);
  run_threads([&](int t) {
    for (int i = 0; i < kIterations; ++i) {
      if (t % 2 == 0) {
        Logger::instance().set_level(LogLevel::kError);
      } else {
        const LogLevel seen = Logger::instance().level();
        EXPECT_TRUE(seen == LogLevel::kOff || seen == LogLevel::kError);
        // Below every threshold the writers install: never prints.
        LAGOVER_TRACE("suppressed probe %d", i);
      }
    }
  });
  EXPECT_EQ(Logger::instance().level(), LogLevel::kError);
  Logger::instance().set_level(before);
}

}  // namespace
}  // namespace lagover
