// Phi-accrual-style adaptive failure detection (Hayashibara et al.,
// "The phi accrual failure detector", as deployed in Cassandra/Akka
// membership). Each parent-child link keeps a sliding window of
// inter-heartbeat intervals; instead of a binary alive/dead verdict
// after a fixed number of missed polls, the detector outputs a
// continuous suspicion level
//
//   phi(t) = -log10( P(next heartbeat arrives later than t) )
//
// under a normal model fitted to the windowed intervals. A link that
// heartbeats every 1.0 time units reaches a given phi far sooner after
// silence than a link that legitimately heartbeats every 4.0 units, so
// one threshold adapts across heterogeneous poll cadences and message
// -loss regimes without per-link tuning.
//
// The detector is pure bookkeeping: it consumes no RNG and schedules
// nothing, so attaching it to an engine cannot perturb a fault-free run.
#pragma once

#include <cstddef>
#include <vector>

#include "core/types.hpp"

namespace lagover::health {

/// Tuning knobs for the phi-accrual detector.
struct PhiConfig {
  /// Suspicion threshold: the link is suspected once phi >= threshold.
  /// phi = 1 means ~10% chance the silence is benign, phi = 2 ~1%, etc.
  /// 8 is the Akka/Cassandra production default: with the stddev floor
  /// below it fires after ~3 clean poll periods (on par with the fixed
  /// 3-miss rule) but backs off once loss-stretched intervals widen the
  /// window — adaptive tolerance instead of a hair trigger.
  double threshold = 8.0;
  /// Sliding window of inter-heartbeat intervals per link.
  std::size_t window = 16;
  /// Floor on the fitted standard deviation, as a fraction of the mean
  /// interval — guards against a perfectly regular history making the
  /// detector hair-triggered.
  double min_std_fraction = 0.35;
  /// Grace period added to the expected arrival (absorbs benign jitter,
  /// e.g. a single GC pause or latency spike).
  double acceptable_pause = 0.0;
  /// Intervals required before phi is meaningful; until then callers
  /// should fall back to their fixed-miss policy.
  std::size_t min_samples = 3;
};

/// Per-link phi-accrual estimator. Links are indexed by the child's
/// NodeId (each child monitors exactly one parent at a time).
class PhiAccrualDetector {
 public:
  PhiAccrualDetector() = default;
  PhiAccrualDetector(std::size_t node_count, PhiConfig config);

  void resize(std::size_t node_count, PhiConfig config);

  /// Records a heartbeat (successfully delivered poll) on `link` at `now`.
  void heartbeat(NodeId link, double now);

  /// True once the link has at least min_samples intervals of history.
  bool primed(NodeId link) const;

  /// Current suspicion level; 0 when unprimed or heartbeat just arrived.
  double phi(NodeId link, double now) const;

  /// phi(link, now) >= threshold (always false while unprimed).
  bool suspect(NodeId link, double now) const;

  /// Forgets the link's history (detach, crash, new parent).
  void reset(NodeId link);

  std::size_t interval_count(NodeId link) const;
  double mean_interval(NodeId link) const;

  const PhiConfig& config() const noexcept { return config_; }

 private:
  struct Link {
    std::size_t next = 0;   ///< ring write position
    std::size_t count = 0;  ///< valid entries (<= window)
    double last_heartbeat = -1.0;
    double sum = 0.0;
    double sum_sq = 0.0;
  };

  PhiConfig config_;
  std::vector<Link> links_;
  /// Every link's ring buffer of config.window intervals, link after
  /// link, allocated when the first interval arrives: heartbeats are
  /// recorded only under a fault layer, so most runs never need it.
  std::vector<double> intervals_;
};

}  // namespace lagover::health
