// Failure-detection / failover instrumentation for the health layer: a
// fold over one run's event stream (TraceEvent, structural kinds
// included) that derives
//
//   * detection latency — crash of a parent -> first orphan-loop
//     activity of each child it orphaned,
//   * orphan time       — suspicion / crash-orphaning -> re-attach,
//     the headline metric bench_failover sweeps across detection
//     policies,
//   * false-positive rate — suspicions (kParentLost) raised while the
//     suspected parent was in fact still online (message loss, not
//     death),
//   * fence / failover counters.
//
// Engine agnostic and needs no live overlay: a crashed node's children
// are the kEdgeDetach events between its kCrash and its kNodeOffline,
// and liveness is kept from kNodeOffline / kNodeOnline. So the recorder
// must see the run from its start, live (subscribe()) or replayed from
// a recording (on_trace() per event, in order).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/node_runtime.hpp"
#include "stats/sample.hpp"

namespace lagover::metrics {

class FailoverRecorder {
 public:
  /// Folds a run over node ids below `node_count`, all starting online.
  explicit FailoverRecorder(std::size_t node_count);

  // Subscribed to a trace bus; moving would dangle the captured `this`.
  FailoverRecorder(const FailoverRecorder&) = delete;
  FailoverRecorder& operator=(const FailoverRecorder&) = delete;

  ~FailoverRecorder();

  /// Subscribes on_trace to a run's trace bus. The bus must outlive the
  /// recorder or a later unsubscribe() call.
  void subscribe(TraceBus& bus);
  void unsubscribe();

  /// Feed every TraceEvent of the run, in emission order.
  void on_trace(const TraceEvent& event);

  /// Time from a parent crash to each orphaned child's first subsequent
  /// orphan-loop activity (its own discovery that the parent is gone).
  const Sample& detection_latency() const noexcept {
    return detection_latency_;
  }

  /// Time each suspicion- or crash-orphaned node spent parentless
  /// before re-attaching (anywhere).
  const Sample& orphan_time() const noexcept { return orphan_time_; }

  std::uint64_t crashes() const noexcept { return crashes_; }
  /// kParentLost + kEpochFenced events (the node acted on a suspicion).
  std::uint64_t suspicions() const noexcept { return suspicions_; }
  /// Suspicions raised while the suspected parent was still online.
  std::uint64_t false_suspicions() const noexcept {
    return false_suspicions_;
  }
  std::uint64_t fences() const noexcept { return fences_; }
  std::uint64_t failover_attaches() const noexcept {
    return failover_attaches_;
  }
  /// Completed crash-to-discovery measurements.
  std::uint64_t detections() const noexcept { return detections_; }

  /// false_suspicions / suspicions (0 when no suspicion fired).
  double false_positive_rate() const noexcept;

 private:
  void start_orphan(NodeId id, double when);
  void end_orphan(NodeId id, double when);
  void clear_node(NodeId id);

  static constexpr double kIdle = -1.0;

  TraceBus* bus_ = nullptr;
  TraceBus::SubscriptionId subscription_ = 0;
  Sample detection_latency_;
  Sample orphan_time_;
  std::uint64_t crashes_ = 0;
  std::uint64_t suspicions_ = 0;
  std::uint64_t false_suspicions_ = 0;
  std::uint64_t fences_ = 0;
  std::uint64_t failover_attaches_ = 0;
  std::uint64_t detections_ = 0;
  /// The node whose kCrash has not yet been followed by its
  /// kNodeOffline (kNoNode = none).
  NodeId crashing_ = kNoNode;
  /// Per node: online, as the stream last said.
  std::vector<char> online_;
  /// Per node: time its current fault-caused orphan period began
  /// (kIdle = not in one).
  std::vector<double> orphan_since_;
  /// Per node: crash time of its late parent, until the node's first
  /// own orphan-loop event completes the detection measurement.
  std::vector<double> detect_since_;
};

}  // namespace lagover::metrics
