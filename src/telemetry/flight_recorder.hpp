// Flight recorder: a bounded black box for post-mortems. While armed it
// rides the global telemetry buses and retains the most recent N
// events, item spans, and log records, plus caller-provided overlay
// snapshot deltas and invariant violations. On the first violation (or
// on explicit request) it dumps a self-contained post-mortem bundle —
// schema "lagover.postmortem.v1" — carrying everything needed to
// understand and REPRODUCE the failure offline: the retained streams,
// the snapshots, a metrics summary, the fault-plan digest, and the
// seed/flags of the run. `lagover_inspect` (src/tools/) answers
// time-travel queries against the bundle.
//
// Layering: this lives in telemetry/, below core/, so overlay snapshots
// arrive pre-serialized (core/snapshot.hpp text) and violations arrive
// as plain ViolationNotes; core/validator.hpp provides the AuditBus →
// FlightRecorder adapter (attach_flight_recorder).
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "common/json.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "telemetry/event_bus.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"

namespace lagover::telemetry {

/// An invariant violation as the recorder stores it (decoupled from
/// core's InvariantViolation so telemetry stays below core).
struct ViolationNote {
  double ts = 0.0;
  std::string invariant;
  std::string cause;
  std::uint32_t node = 0;
  std::uint32_t parent = 0;
  std::string detail;
};

/// Bounded retention ring over the global event/span/log buses plus
/// snapshot and violation intakes; dumps "lagover.postmortem.v1"
/// bundles. Subscribes on construction, unsubscribes on destruction.
///
/// Internally locked: the bus handlers may fire from any publishing
/// thread, so every ring sits behind the recorder's mutex. The
/// violation auto-dump decides under the lock but WRITES the bundle
/// outside it (the dump reads the rings through to_json's own lock and
/// the metrics registry through its own — holding ours across that
/// would nest three locks for no benefit).
class LAGOVER_THREAD_SAFE FlightRecorder {
 public:
  struct Config {
    std::size_t event_capacity = 4096;
    std::size_t span_capacity = 8192;
    std::size_t log_capacity = 1024;
    std::size_t snapshot_capacity = 8;
    std::size_t violation_capacity = 256;
    std::size_t health_capacity = 64;
  };

  FlightRecorder();
  explicit FlightRecorder(Config config);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // --- repro metadata (embedded verbatim in the bundle) ---------------
  void set_repro(std::uint64_t seed, std::string flags)
      LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    seed_ = seed;
    flags_ = std::move(flags);
  }
  /// Human-readable fault-plan digest (FaultPlan::to_string()).
  void set_fault_plan(std::string digest) LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    fault_plan_ = std::move(digest);
  }

  // --- intakes --------------------------------------------------------
  /// Retains an overlay snapshot (core/snapshot.hpp text) taken at sim
  /// time t. Consecutive identical snapshots are collapsed (delta
  /// retention): only state changes consume ring slots.
  void note_snapshot(double t, const std::string& snapshot_text)
      LAGOVER_EXCLUDES(mutex_);

  /// Retains a violation; on the FIRST one, triggers the auto-dump when
  /// armed via set_dump_on_violation().
  void note_violation(const ViolationNote& note) LAGOVER_EXCLUDES(mutex_);

  /// Retains an overlay-health sample line ("lagover.health.v1",
  /// OverlayHealthRecorder::set_sample_mirror feeds this) so bundles
  /// carry the last K structural snapshots leading up to a failure.
  void note_health(const Json& sample) LAGOVER_EXCLUDES(mutex_);

  /// Arms auto-dump: the first note_violation() writes the bundle to
  /// `path` (empty disarms).
  void set_dump_on_violation(std::string path) LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    dump_path_ = std::move(path);
  }

  // --- state ----------------------------------------------------------
  bool violation_seen() const LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return violations_total_ > 0;
  }
  std::uint64_t violations_total() const LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return violations_total_;
  }
  std::size_t retained_events() const LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return events_.size();
  }
  std::size_t retained_spans() const LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return spans_.size();
  }
  std::size_t retained_logs() const LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return logs_.size();
  }
  std::size_t retained_snapshots() const LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return snapshots_.size();
  }
  std::size_t retained_health() const LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return health_.size();
  }
  /// Did the armed auto-dump fire (and succeed)?
  bool dumped() const LAGOVER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return dumped_;
  }

  // --- bundle ---------------------------------------------------------
  /// The full "lagover.postmortem.v1" document. `reason` is typically
  /// "invariant_violation" or "explicit".
  Json to_json(const std::string& reason) const LAGOVER_EXCLUDES(mutex_);

  /// Writes the bundle; false on I/O failure.
  bool dump(const std::string& path, const std::string& reason) const
      LAGOVER_EXCLUDES(mutex_);

 private:
  struct SnapshotRecord {
    double t = 0.0;
    std::string text;
  };

  template <typename T>
  static void retain(std::deque<T>& ring, std::size_t capacity, T value) {
    if (capacity == 0) return;
    if (ring.size() == capacity) ring.pop_front();
    ring.push_back(std::move(value));
  }

  // Set once in the constructor, then immutable.
  Config config_;
  EventBus<TraceEvent>::SubscriptionId event_sub_ = 0;
  SpanBus::SubscriptionId span_sub_ = 0;
  EventBus<LogRecord>::SubscriptionId log_sub_ = 0;

  mutable Mutex mutex_;
  std::deque<TraceEvent> events_ LAGOVER_GUARDED_BY(mutex_);
  std::deque<ItemSpan> spans_ LAGOVER_GUARDED_BY(mutex_);
  std::deque<LogRecord> logs_ LAGOVER_GUARDED_BY(mutex_);
  std::deque<SnapshotRecord> snapshots_ LAGOVER_GUARDED_BY(mutex_);
  std::deque<ViolationNote> violations_ LAGOVER_GUARDED_BY(mutex_);
  std::deque<Json> health_ LAGOVER_GUARDED_BY(mutex_);
  std::uint64_t violations_total_ LAGOVER_GUARDED_BY(mutex_) = 0;

  std::uint64_t seed_ LAGOVER_GUARDED_BY(mutex_) = 0;
  std::string flags_ LAGOVER_GUARDED_BY(mutex_);
  std::string fault_plan_ LAGOVER_GUARDED_BY(mutex_);
  std::string dump_path_ LAGOVER_GUARDED_BY(mutex_);
  bool dumped_ LAGOVER_GUARDED_BY(mutex_) = false;
};

/// Serializers shared by the JSONL exporter and the bundle writer, so
/// both speak the same "lagover.spans.v1" line schema.
Json event_to_json(const TraceEvent& event);
Json span_to_json(const ItemSpan& span);
Json log_to_json(const LogRecord& record);

}  // namespace lagover::telemetry
