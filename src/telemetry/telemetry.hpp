// Header-only base of the telemetry substrate: the process-wide enable
// switch, the simulated/wall clocks, the event type and the global
// event + log buses. Everything here but to_string(TraceEventType) is
// inline (function-local statics) so even lagover_common — which the
// telemetry library itself links against — can publish without a
// link-time dependency.
//
// The contract of the whole layer: telemetry OFF (the default) means
// ZERO behavior change. No RNG is consumed, no simulation state is
// touched, and every recording site collapses to one predicted branch.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "telemetry/event_bus.hpp"

namespace lagover::telemetry {

// ---------------------------------------------------------------------
// Enable switch. An atomic so a coordinator thread can flip telemetry
// on/off while workers are mid-round; relaxed order suffices because
// the flag gates only whether sites record, never what they record.

inline std::atomic<bool>& enabled_flag() noexcept {
  static std::atomic<bool> flag{false};
  return flag;
}

/// Is the telemetry layer recording? All TELEM_* macros and publishing
/// helpers early-return when this is false.
inline bool enabled() noexcept {
  return enabled_flag().load(std::memory_order_relaxed);
}

inline void set_enabled(bool on) noexcept {
  enabled_flag().store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// Clocks. Simulated time is pushed by whichever engine is currently
// running (a plain atomic double — no callback, so no dangling
// captures); wall time is monotonic nanoseconds since the first use in
// the process.

inline std::atomic<double>& sim_now_ref() noexcept {
  static std::atomic<double> now{0.0};
  return now;
}

/// Latest simulated time any instrumented engine reported.
inline double sim_now() noexcept {
  return sim_now_ref().load(std::memory_order_relaxed);
}

/// Engines call this (guarded by enabled()) at round / wake boundaries
/// so log lines and profiler scopes can carry simulated timestamps.
/// With several engines running in parallel "latest" is last-writer-
/// wins — fine for timestamping, which only needs a plausible now.
inline void note_sim_time(double t) noexcept {
  sim_now_ref().store(t, std::memory_order_relaxed);
}

inline std::chrono::steady_clock::time_point wall_origin() noexcept {
  static const auto origin = std::chrono::steady_clock::now();
  return origin;
}

/// Monotonic wall clock, nanoseconds since process telemetry start.
inline std::uint64_t wall_nanos() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_origin())
          .count());
}

// ---------------------------------------------------------------------
// The event stream. A construction run's runtime (core/node_runtime)
// publishes one TraceEvent per protocol step and per structural change
// of its overlay, stamped by its own clock, on the run's bus — and,
// while telemetry is on, on the process-global event_bus() below, so
// exporters (JSONL, Chrome trace, the flight recorder) capture a whole
// bench run, including runs built inside helpers they never see.

enum class TraceEventType {
  kChurnLeave,
  kChurnJoin,
  kMaintenanceDetach,
  kSourceContact,
  kInteraction,
  kOracleEmpty,
  /// The interaction request never reached the partner (fault layer:
  /// dropped message, partition, or a stale-Oracle partner that is
  /// already offline).
  kInteractionFailed,
  /// The source-contact request was lost; the node keeps a pending
  /// source referral and retries on its next step.
  kSourceContactFailed,
  /// An attached node missed too many consecutive polls to its parent
  /// (partition / message loss) and re-orphaned itself. Emitted for
  /// both detection policies (fixed-miss and phi-accrual).
  kParentLost,
  /// A node crashed (fault layer). Emitted BEFORE the node is taken
  /// offline: its children's kEdgeDetach events and its own
  /// kNodeOffline follow.
  kCrash,
  /// A crashed node rejoined, or a churned node re-entered.
  kRejoin,
  /// A parent lease was rejected because the parent re-incarnated
  /// (epoch fence): the child re-orphans without waiting for misses.
  kEpochFenced,
  /// A suspected-orphan re-attached via the local failover ladder
  /// (grandparent hint / cached partner) without consulting the Oracle.
  kFailoverAttach,
  /// The defense ladder barred a node's parent (quarantine/blacklist):
  /// the child abandons it without waiting for missed polls.
  kParentQuarantined,
  // Structural kinds: one per overlay mutation, whoever caused it
  // (including displacement detaches and churn, which no protocol kind
  // names), so a consumer can replay the parent map from the stream.
  /// subject attached under partner (attached = true).
  kEdgeAttach,
  /// subject detached from its parent partner.
  kEdgeDetach,
  /// subject went offline; its edges were detached just before.
  kNodeOffline,
  /// subject came back online, parentless.
  kNodeOnline,
};

/// True for the four kinds an overlay mutation publishes.
inline bool structural(TraceEventType type) noexcept {
  return type >= TraceEventType::kEdgeAttach;
}

/// Stable lower_snake name of an event type ("interaction",
/// "edge_attach", ...), used by the exporters and the per-type
/// "trace.<name>" counters.
const char* to_string(TraceEventType type) noexcept;

struct TraceEvent {
  /// The clock as a whole number (the round in the synchronous engine).
  std::uint64_t round = 0;
  TraceEventType type{};
  std::uint32_t subject = 0xffffffffu;  ///< ~0u = no node
  std::uint32_t partner = 0xffffffffu;
  bool attached = false;  ///< kInteraction, kSourceContact, kEdgeAttach
  /// Event time: simulation time in the async engine, the round number
  /// in the synchronous one.
  double when = -1.0;
  /// Subject's incarnation when a fault or adversary layer can
  /// re-incarnate nodes (0 otherwise, and on structural kinds).
  std::uint32_t epoch = 0;
  /// Optional cause tag ("missed_polls", "stale_lease", "outage", ...)
  /// set by emission sites that can distinguish why the event fired.
  const char* cause = "";
};

inline EventBus<TraceEvent>& event_bus() {
  static EventBus<TraceEvent> bus;
  return bus;
}

// ---------------------------------------------------------------------
// Global log stream. The Logger mirrors every emitted line here (at
// trace granularity) so log lines and trace events interleave
// coherently in the exported timeline.

struct LogRecord {
  double sim_time = 0.0;
  std::uint64_t wall_ns = 0;
  int level = 0;  ///< LogLevel as int (logging.hpp owns the enum)
  std::string message;
};

inline EventBus<LogRecord>& log_bus() {
  static EventBus<LogRecord> bus;
  return bus;
}

}  // namespace lagover::telemetry
