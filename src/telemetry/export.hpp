// Export layer of the telemetry substrate:
//
//   * TimeseriesSampler — periodic per-round snapshots of every
//     registered counter/gauge into TimeSeries,
//   * JsonlEventWriter  — streaming JSONL dump of the global event,
//     span, and log buses (one JSON object per line),
//   * ChromeTraceWriter — Chrome trace_event format ("traceEvents"),
//     loadable in Perfetto / chrome://tracing: simulated-time instants
//     on the "sim" process, wall-clock profiler scopes on "wall",
//     per-item dissemination hops as duration events on "items",
//   * metrics_summary_json — the "lagover.metrics.v1" summary benches
//     embed next to their "lagover.bench.v1" block.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <string>

#include "common/json.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "stats/timeseries.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"

namespace lagover::telemetry {

/// Snapshots every registered counter and gauge of a MetricsRegistry on
/// each sample(t) call, building one TimeSeries per metric. Sampling
/// with a timestamp at or before the previous one restarts the series
/// (benches run many trials back-to-back on restarting clocks; the
/// exported series covers the most recent run).
class TimeseriesSampler {
 public:
  explicit TimeseriesSampler(const MetricsRegistry& registry =
                                 MetricsRegistry::instance())
      : registry_(registry) {}

  void sample(double t);
  void clear();

  const std::map<std::string, TimeSeries>& series() const noexcept {
    return series_;
  }
  std::size_t samples() const noexcept { return samples_; }

  /// {"<metric>": [[t, value], ...]} with at most `max_points` points
  /// per series (downsampled, step semantics).
  Json to_json(std::size_t max_points = 256) const;

 private:
  const MetricsRegistry& registry_;
  std::map<std::string, TimeSeries> series_;
  std::size_t samples_ = 0;
  double last_t_ = 0.0;
};

/// Streams the global event + span + log buses to a JSONL file.
/// Subscribes on construction, unsubscribes on destruction. With
/// `spans_only` set it captures just the span bus — the shape
/// `--spans-out` wants next to a full `--events-out` dump.
///
/// Subscribed to three independent buses, so two handlers can fire
/// concurrently from different publisher threads: the output stream is
/// guarded by the writer's own mutex (lines interleave whole, never
/// torn).
class LAGOVER_THREAD_SAFE JsonlEventWriter {
 public:
  explicit JsonlEventWriter(const std::string& path, bool spans_only = false);
  ~JsonlEventWriter();

  JsonlEventWriter(const JsonlEventWriter&) = delete;
  JsonlEventWriter& operator=(const JsonlEventWriter&) = delete;

  bool ok() const LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return static_cast<bool>(out_);
  }
  std::uint64_t lines() const LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return lines_;
  }

 private:
  void on_event(const TraceEvent& event) LAGOVER_EXCLUDES(mutex_);
  void on_span(const ItemSpan& span) LAGOVER_EXCLUDES(mutex_);
  void on_log(const LogRecord& record) LAGOVER_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  std::ofstream out_ LAGOVER_GUARDED_BY(mutex_);
  std::uint64_t lines_ LAGOVER_GUARDED_BY(mutex_) = 0;
  EventBus<TraceEvent>::SubscriptionId event_sub_ = 0;
  SpanBus::SubscriptionId span_sub_ = 0;
  EventBus<LogRecord>::SubscriptionId log_sub_ = 0;
  bool subscribed_events_ = false;
};

/// Collects the global event bus, the log bus, and (as the profiler's
/// scope sink) every profiled scope, then writes one Chrome
/// trace_event JSON file. Timestamps: simulated events use sim time
/// scaled to microseconds (1 time unit = 1s) on pid 1 ("sim");
/// profiler scopes use wall microseconds on pid 2 ("wall").
class LAGOVER_THREAD_SAFE ChromeTraceWriter final : public ScopeSink {
 public:
  ChromeTraceWriter();
  ~ChromeTraceWriter() override;

  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  std::size_t event_count() const LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return events_.size();
  }

  /// Writes {"traceEvents": [...], "displayTimeUnit": "ms"}; false on
  /// I/O failure.
  bool write(const std::string& path) const LAGOVER_EXCLUDES(mutex_);

  void scope_complete(const ProfileSite& site, std::uint64_t start_wall_ns,
                      std::uint64_t duration_ns, double sim_time)
      LAGOVER_EXCLUDES(mutex_) override;

 private:
  void on_event(const TraceEvent& event) LAGOVER_EXCLUDES(mutex_);
  void on_span(const ItemSpan& span) LAGOVER_EXCLUDES(mutex_);
  void on_log(const LogRecord& record) LAGOVER_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  std::vector<Json> events_ LAGOVER_GUARDED_BY(mutex_);
  EventBus<TraceEvent>::SubscriptionId event_sub_ = 0;
  SpanBus::SubscriptionId span_sub_ = 0;
  EventBus<LogRecord>::SubscriptionId log_sub_ = 0;
  ScopeSink* previous_sink_ = nullptr;
};

/// The full "lagover.metrics.v1" block: registry counters/gauges/
/// histograms, the profiler aggregates under "profile", and (when a
/// sampler is given) per-round series under "timeseries".
Json metrics_summary_json(const TimeseriesSampler* sampler = nullptr,
                          bool include_buckets = true);

}  // namespace lagover::telemetry
