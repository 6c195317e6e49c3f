// Feed dissemination over a constructed LagOver: the source's direct
// children poll it with period T (staggered phases, as real aggregators
// would), everything downstream receives pushes, one overlay hop costing
// `hop_delay`. With T = hop_delay = 1 a node at depth d observes
// staleness at most d — the delay model the construction algorithms
// optimize against — so a satisfied overlay should show zero
// staleness-budget violations here (verified by tests). The lossy model
// (reliability.hpp) runs the same event loop with loss and repair on.
#pragma once

#include <cstdint>
#include <vector>

#include "core/overlay.hpp"
#include "feed/feed.hpp"
#include "feed/overload.hpp"
#include "sim/simulator.hpp"

namespace lagover::feed {

struct DisseminationConfig {
  double poll_period = 1.0;  ///< T at the depth-1 pollers
  double hop_delay = 1.0;    ///< per overlay hop push delay
  /// Pull-only source (RSS, the paper's focus): depth-1 nodes poll with
  /// period T. With a push-capable source (Section 2.1.2's alternative)
  /// the source pushes each item to its children directly, removing the
  /// poll-period staleness component and all empty polls.
  bool push_source = false;
  SourceConfig source;
  /// Per-node capacity limits (empty = the unlimited pre-capacity
  /// behaviour, byte-identical).
  CapacityConfig capacity;
  std::uint64_t seed = 1;
};

struct NodeDeliveryStats {
  NodeId node = kNoNode;
  std::uint64_t items = 0;
  double max_staleness = 0.0;
  double mean_staleness = 0.0;
  Delay latency_constraint = 0;
  bool constraint_met = true;  ///< max staleness <= l (+ float slack)
};

struct DisseminationReport {
  SimTime duration = 0.0;
  std::uint64_t items_published = 0;
  std::uint64_t source_requests = 0;
  std::uint64_t source_empty_requests = 0;
  double source_request_rate = 0.0;  ///< requests per time unit
  std::uint64_t push_messages = 0;
  std::size_t pollers = 0;  ///< direct children of the source
  std::vector<NodeDeliveryStats> nodes;
  std::size_t violations = 0;  ///< nodes whose staleness budget broke
  /// Capacity-model drops: forwards shed at the relay's budget and
  /// forwards refused by a child's full pending queue.
  std::uint64_t shed_pushes = 0;
  std::uint64_t queue_drops = 0;
};

/// Runs the pull-then-push dissemination over a (typically converged)
/// overlay snapshot. Only connected nodes participate; the report
/// contains one entry per connected consumer.
DisseminationReport run_dissemination(const Overlay& overlay,
                                      const DisseminationConfig& config,
                                      SimTime duration);

}  // namespace lagover::feed
