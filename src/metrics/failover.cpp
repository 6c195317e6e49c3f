#include "metrics/failover.hpp"

namespace lagover::metrics {

FailoverRecorder::FailoverRecorder(std::size_t node_count)
    : online_(node_count, 1),
      orphan_since_(node_count, kIdle),
      detect_since_(node_count, kIdle) {}

FailoverRecorder::~FailoverRecorder() { unsubscribe(); }

void FailoverRecorder::subscribe(TraceBus& bus) {
  unsubscribe();
  bus_ = &bus;
  subscription_ =
      bus.subscribe([this](const TraceEvent& event) { on_trace(event); });
}

void FailoverRecorder::unsubscribe() {
  if (bus_ == nullptr) return;
  bus_->unsubscribe(subscription_);
  bus_ = nullptr;
  subscription_ = 0;
}

void FailoverRecorder::start_orphan(NodeId id, double when) {
  if (orphan_since_[id] == kIdle) orphan_since_[id] = when;
}

void FailoverRecorder::end_orphan(NodeId id, double when) {
  if (orphan_since_[id] == kIdle) return;
  orphan_time_.add(when - orphan_since_[id]);
  orphan_since_[id] = kIdle;
}

void FailoverRecorder::clear_node(NodeId id) {
  orphan_since_[id] = kIdle;
  detect_since_[id] = kIdle;
}

void FailoverRecorder::on_trace(const TraceEvent& event) {
  const NodeId subject = event.subject;
  const double now = event.when;
  switch (event.type) {
    case TraceEventType::kCrash:
      ++crashes_;
      // The crashed node's own pending measurements die with it; the
      // children it orphans detach before its kNodeOffline.
      crashing_ = subject;
      clear_node(subject);
      return;
    case TraceEventType::kEdgeDetach:
      // A child of the crashing node: it starts an orphan period now
      // (the ground truth) and a detection measurement that completes
      // at its first own orphan-loop activity.
      if (crashing_ != kNoNode && event.partner == crashing_) {
        start_orphan(subject, now);
        if (detect_since_[subject] == kIdle) detect_since_[subject] = now;
      }
      return;
    case TraceEventType::kNodeOffline:
      online_[subject] = 0;
      if (subject == crashing_) crashing_ = kNoNode;
      return;
    case TraceEventType::kNodeOnline:
      online_[subject] = 1;
      return;
    case TraceEventType::kEdgeAttach:
      // Only the node's own attached events end its orphan period.
      return;
    case TraceEventType::kParentLost:
    case TraceEventType::kEpochFenced:
      ++suspicions_;
      if (event.type == TraceEventType::kEpochFenced) ++fences_;
      // The suspected parent being alive right now means the silence
      // was message loss, not death: a false positive.
      if (event.partner != kNoNode && online_[event.partner] != 0)
        ++false_suspicions_;
      start_orphan(subject, now);
      return;
    case TraceEventType::kChurnLeave:
      clear_node(subject);
      return;
    case TraceEventType::kChurnJoin:
    case TraceEventType::kRejoin:
      // A new incarnation: its previous life's measurements are void.
      clear_node(subject);
      return;
    case TraceEventType::kFailoverAttach:
      ++failover_attaches_;
      break;  // falls through to the generic orphan-activity handling
    default:
      break;
  }

  // Any orphan-loop event by a node with a pending detection
  // measurement is its moment of discovery.
  if (detect_since_[subject] != kIdle) {
    detection_latency_.add(now - detect_since_[subject]);
    detect_since_[subject] = kIdle;
    ++detections_;
  }
  // A successful (re-)attachment ends the orphan period.
  if (event.attached) end_orphan(subject, now);
}

double FailoverRecorder::false_positive_rate() const noexcept {
  if (suspicions_ == 0) return 0.0;
  return static_cast<double>(false_suspicions_) /
         static_cast<double>(suspicions_);
}

}  // namespace lagover::metrics
