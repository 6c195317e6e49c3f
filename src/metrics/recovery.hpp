// Recovery instrumentation for chaos experiments: samples the overlay
// on a fixed cadence and, against a FaultPlan, derives per-window
// damage (peak orphans) and the time-to-reconvergence after each fault
// window closes. Engine agnostic: the async engine drives sample() from
// a periodic event, the synchronous engine once per round.
#pragma once

#include <cstddef>
#include <vector>

#include "core/overlay.hpp"
#include "fault/fault_plan.hpp"
#include "stats/timeseries.hpp"

namespace lagover {

class RecoveryRecorder {
 public:
  /// Borrows the overlay (must outlive the recorder).
  RecoveryRecorder(const Overlay& overlay, fault::FaultPlan plan);

  /// Records one observation at time t, read off the overlay's index:
  /// online orphan roots and the satisfied fraction.
  void sample(double t);

  const TimeSeries& orphan_series() const noexcept { return orphans_; }
  const TimeSeries& satisfied_series() const noexcept { return satisfied_; }

  /// Damage and recovery per fault window, derived from the samples.
  struct WindowRecovery {
    std::size_t window = 0;          ///< index into plan().windows()
    double window_end = 0.0;
    std::size_t peak_orphans = 0;    ///< max during [start, end)
    bool recovered = false;
    /// First sample time >= window end with every online consumer
    /// satisfied; meaningful when recovered.
    double recovered_at = 0.0;
    /// recovered_at - window_end (the headline metric).
    double time_to_reconverge = 0.0;
  };
  std::vector<WindowRecovery> window_recoveries() const;

  /// Time from the END of the LAST fault window to the first fully
  /// healthy sample after it; negative when the overlay never healed
  /// within the sampled horizon.
  double final_time_to_reconverge() const;

  /// Was every online consumer satisfied at the last sample?
  bool healthy_at_end() const;

  const fault::FaultPlan& plan() const noexcept { return plan_; }

 private:
  /// All satisfied, which rules out orphans (never connected) and
  /// latency violations alike.
  bool healthy_at(std::size_t sample_index) const {
    return satisfied_.value_at(sample_index) >= 1.0;
  }

  const Overlay& overlay_;
  fault::FaultPlan plan_;
  TimeSeries orphans_;
  TimeSeries satisfied_;
};

}  // namespace lagover
