// Recovery instrumentation for chaos experiments: samples the overlay
// on a fixed cadence and, against a FaultPlan, derives per-window
// damage (peak orphans / constraint violations) and the
// time-to-reconvergence after each fault window closes. Engine
// agnostic: the async engine drives sample() from a periodic event, the
// synchronous engine once per round.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/node_runtime.hpp"
#include "core/overlay.hpp"
#include "fault/fault_plan.hpp"
#include "stats/timeseries.hpp"

namespace lagover {

class RecoveryRecorder {
 public:
  /// Borrows the overlay (must outlive the recorder).
  RecoveryRecorder(const Overlay& overlay, fault::FaultPlan plan);

  // Subscribed to a trace bus; moving would dangle the captured `this`.
  RecoveryRecorder(const RecoveryRecorder&) = delete;
  RecoveryRecorder& operator=(const RecoveryRecorder&) = delete;

  ~RecoveryRecorder();

  /// Subscribes to an engine's trace bus to count fault-related events
  /// (crashes, suspicions, fences). Pure counting: the recovery math
  /// stays driven exclusively by sample(), so results are identical
  /// with or without a subscription. The bus must outlive the recorder
  /// or a later unsubscribe() call.
  void subscribe(TraceBus& bus);
  void unsubscribe();

  /// Crash / suspicion / fence trace events observed via subscribe().
  std::uint64_t fault_events() const noexcept { return fault_events_; }

  /// Records one observation at time t: online orphan roots, online
  /// attached nodes violating their latency constraint, and the
  /// satisfied fraction.
  void sample(double t);

  const TimeSeries& orphan_series() const noexcept { return orphans_; }
  const TimeSeries& violation_series() const noexcept { return violations_; }
  const TimeSeries& satisfied_series() const noexcept { return satisfied_; }

  /// Damage and recovery per fault window, derived from the samples.
  struct WindowRecovery {
    std::size_t window = 0;          ///< index into plan().windows()
    double window_end = 0.0;
    std::size_t peak_orphans = 0;    ///< max during [start, end)
    std::size_t peak_violations = 0;
    bool recovered = false;
    /// First sample time >= window end with zero orphans, zero
    /// violations, and full satisfaction; meaningful when recovered.
    double recovered_at = 0.0;
    /// recovered_at - window_end (the headline metric).
    double time_to_reconverge = 0.0;
  };
  std::vector<WindowRecovery> window_recoveries() const;

  /// Time from the END of the LAST fault window to the first fully
  /// healthy sample after it; negative when the overlay never healed
  /// within the sampled horizon.
  double final_time_to_reconverge() const;

  /// Was the overlay fully healthy (no orphans, no violations, all
  /// satisfied) at the last sample?
  bool healthy_at_end() const;

  const fault::FaultPlan& plan() const noexcept { return plan_; }

 private:
  bool healthy_at(std::size_t sample_index) const;

  const Overlay& overlay_;
  fault::FaultPlan plan_;
  TraceBus* bus_ = nullptr;
  TraceBus::SubscriptionId subscription_ = 0;
  std::uint64_t fault_events_ = 0;
  TimeSeries orphans_;
  TimeSeries violations_;
  TimeSeries satisfied_;
};

}  // namespace lagover
