// Oracle admission control (ROADMAP "production system": the overlay
// exists to solve the bandwidth overload problem, so the Oracle itself
// must survive being hammered). A windowed request-rate limiter with a
// three-state circuit breaker fronts the Oracle:
//
//   closed     — queries admitted until the window budget is spent;
//                over-budget queries are answered from a small cache of
//                recently returned partners ("stale serving") or
//                rejected with retry-after advice.
//   open       — tripped after `breaker_trip_windows` consecutive
//                saturated windows: every query is rejected outright
//                and the engines' cached-partner fallback takes over
//                (the same path Oracle outage windows use).
//   half-open  — after `breaker_cooldown`, probe traffic is admitted
//                again; one saturated window re-opens the breaker,
//                `breaker_close_windows` clean windows close it
//                (hysteresis on recovery).
//
// Engines honor rejections through their existing backoff machinery
// (exponential retry the fault layer also uses), so a flash crowd of
// orphans spreads out instead of synchronously stampeding the Oracle —
// and, via the timeout path, the source.
//
// The runtime's Oracle query step (core/node_runtime.hpp) asks the
// controller for a verdict and carries it out: it keeps the stale cache
// and counts the stale-served answers. An AdmissionConfig with no rate
// limit is "empty": no controller is built, no RNG-stream change, runs
// stay byte-identical to an admission-free engine.
#pragma once

#include <cstdint>

namespace lagover {

/// Tunables of the Oracle admission layer. rate_limit <= 0 disables the
/// whole layer (empty()).
struct AdmissionConfig {
  /// Queries admitted per accounting window; <= 0 = unlimited (off).
  double rate_limit = 0.0;
  /// Accounting window length in engine time units.
  double window = 5.0;
  /// Wait a rejected node is advised before retrying (engines scale it
  /// by their exponential backoff).
  double retry_after = 2.0;
  /// Consecutive saturated windows before the breaker opens.
  int breaker_trip_windows = 3;
  /// Time the breaker stays open before admitting probe traffic.
  double breaker_cooldown = 20.0;
  /// Consecutive clean (unsaturated) half-open windows before the
  /// breaker closes again — hysteresis so recovery does not flap.
  int breaker_close_windows = 2;
  /// Over-budget queries are answered from the stale-sample cache when
  /// possible (degraded service) instead of rejected outright.
  bool serve_stale = true;

  bool empty() const noexcept { return rate_limit <= 0.0; }
};

/// Windowed rate accounting + circuit breaker. Pure bookkeeping: no RNG,
/// deterministic given the query time sequence.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config);

  enum class Verdict {
    kAdmit,  ///< within budget — pass through to the Oracle
    kStale,  ///< over budget — serve from the stale cache if possible
    kReject, ///< rejected; retry after retry_after (scaled by backoff)
  };

  /// Accounts one query at time `now` and rules on it.
  Verdict on_query(double now);

  /// Is the breaker open right now? (Performs the open -> half-open
  /// transition when the cooldown has elapsed, mirroring on_query.)
  /// While open, engines treat the Oracle like an outage window: the
  /// cached-partner fallback serves instead.
  bool open(double now) noexcept;

  double retry_after() const noexcept { return config_.retry_after; }
  const AdmissionConfig& config() const noexcept { return config_; }

  std::uint64_t admitted() const noexcept { return admitted_; }
  std::uint64_t rejected() const noexcept { return rejected_; }
  std::uint64_t stale_verdicts() const noexcept { return stale_verdicts_; }
  std::uint64_t breaker_trips() const noexcept { return breaker_trips_; }
  std::uint64_t breaker_closes() const noexcept { return breaker_closes_; }

 private:
  enum class Breaker { kClosed, kOpen, kHalfOpen };

  /// Advances window accounting to the window containing `now`,
  /// evaluating every window boundary crossed on the way.
  void roll_to(double now);
  /// Saturation-streak bookkeeping and state transitions at one window
  /// boundary.
  void close_window();
  void trip(double now);

  AdmissionConfig config_;
  Breaker state_ = Breaker::kClosed;
  std::int64_t window_index_ = 0;
  bool started_ = false;
  std::uint64_t window_count_ = 0;
  bool window_saturated_ = false;
  int saturated_streak_ = 0;
  int clean_streak_ = 0;
  double opened_at_ = 0.0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t stale_verdicts_ = 0;
  std::uint64_t breaker_trips_ = 0;
  std::uint64_t breaker_closes_ = 0;
};

}  // namespace lagover
