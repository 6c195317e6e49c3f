// Per-node feed capacity model and the one relay policy every feed
// path runs. LagOver's founding premise is the bandwidth overload
// problem: no relay can forward unboundedly many items per unit time,
// and a reproduction that models infinite capacity never exercises the
// one failure class the overlay exists to prevent. CapacityConfig
// bounds a relay's forwarding budget per unit-time window and each
// child's pending backlog; CapacitySqueeze windows shrink the budget on
// a schedule (overload fault injection — a background job stealing the
// relay's cycles).
//
// The limits are physics — enforced whenever configured. The `shedding`
// flag is policy: with it on, relays serve by deadline urgency
// (RelayPolicy), so an exhausted budget sheds the children with the
// most slack, who can absorb staleness; with it off the same budget
// produces arbitrary tail drops — the undefended collapse benches
// measure. Live runs add rules of their own on top (LiveConfig:
// degraded fanout and starvation escalation).
//
// An empty config (no budget, no queue bound) leaves every feed path
// byte-identical to the pre-capacity code.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/overlay.hpp"

namespace lagover::feed {

/// One capacity-squeeze window: while active, relay budgets are scaled
/// by `factor` (< 1 squeezes, e.g. 0.5 halves the budget).
struct CapacitySqueeze {
  double start = 0.0;
  double end = 0.0;
  double factor = 0.5;
};

/// The capacity limits every feed path honours: the live tick loop,
/// ideal dissemination and lossy dissemination.
struct CapacityConfig {
  /// Items a relay (or a push-capable source) may forward per unit-time
  /// window; 0 = unlimited.
  std::uint32_t relay_budget = 0;
  /// Pending (scheduled but undelivered) items per child before new
  /// forwards to it are refused; 0 = unbounded.
  std::uint32_t queue_limit = 0;
  /// Deadline-aware service (see file comment). Off = undefended: the
  /// budget still binds, but drops are arbitrary and unrecovered.
  bool shedding = false;
  /// Scheduled budget squeezes (inert without a relay_budget).
  std::vector<CapacitySqueeze> squeezes;

  bool empty() const noexcept {
    return relay_budget == 0 && queue_limit == 0;
  }

  /// Effective relay budget at `now`: the configured budget scaled by
  /// every active squeeze, floored at 1 (a squeezed relay trickles, it
  /// does not halt). 0 = unlimited (no budget configured).
  std::uint32_t budget_at(double now) const noexcept {
    if (relay_budget == 0) return 0;
    double budget = static_cast<double>(relay_budget);
    for (const CapacitySqueeze& squeeze : squeezes)
      if (now >= squeeze.start && now < squeeze.end) budget *= squeeze.factor;
    const auto scaled = static_cast<std::uint32_t>(budget);
    return scaled == 0 ? 1U : scaled;
  }
};

/// The relay-capacity policy both feed loops call: the per-relay budget
/// window, the urgency key that orders service, and the subtree-minimum
/// pass that makes a relay as urgent as the tightest deadline below it.
/// What a full queue costs stays with each loop: the live loop drops a
/// child's oldest pending items, the event core refuses the new forward.
class RelayPolicy {
 public:
  /// Keys from kLateBase up belong to items already past their
  /// deadline; kIdle marks a node with nothing pending.
  static constexpr double kLateBase = 1e9;
  static constexpr double kIdle = 2e9;

  /// Allocates nothing without a relay budget.
  RelayPolicy(const CapacityConfig& config, std::size_t node_count)
      : config_(config) {
    if (config.relay_budget != 0) windows_.assign(node_count, Window{});
  }

  /// Charges one forward to `relay`'s budget in the integer time window
  /// holding `now`; false (and the window marked exhausted) once
  /// budget_at(now) is spent. Always true without a budget.
  bool spend(NodeId relay, double now) {
    if (config_.relay_budget == 0) return true;
    Window& window = windows_[relay];
    const auto index = static_cast<std::int64_t>(now);
    if (window.index != index) window = {index, 0, false};
    if (window.spent >= config_.budget_at(now)) {
      window.refused = true;
      return false;
    }
    ++window.spent;
    return true;
  }
  /// Whether `relay` was refused a forward in the window holding `now`.
  bool exhausted(NodeId relay, double now) const {
    return config_.relay_budget != 0 &&
           windows_[relay].index == static_cast<std::int64_t>(now) &&
           windows_[relay].refused;
  }

  /// Service key of an item published at `published_at` for a node
  /// whose staleness budget is `deadline`, at `now`, lowest first.
  /// Items that can still arrive on time rank by slack, tightest first,
  /// so scarce budget buys on-time deliveries; items already late rank
  /// after them, least late first — their misses are sunk either way,
  /// so they absorb the staleness.
  static double urgency(double published_at, double deadline, double now) {
    const double slack = published_at + deadline - now;
    return slack >= 0.0 ? slack : kLateBase - slack;
  }

  /// Lowers every node's `key` to the least key in its subtree. A
  /// backlogged relay looks hopeless by its own deadline, but serving
  /// it is exactly what unblocks an on-time delivery below it.
  void take_subtree_min(const Overlay& overlay, std::vector<double>& key) {
    // Depth strictly decreases parent-ward, so one deep-to-shallow pass
    // folds every child into its parent after its own subtree.
    deepest_first_.clear();
    for (NodeId id = 1; id < overlay.node_count(); ++id)
      deepest_first_.push_back(id);
    std::sort(deepest_first_.begin(), deepest_first_.end(),
              [&overlay](NodeId a, NodeId b) {
                return overlay.delay_at(a) > overlay.delay_at(b);
              });
    for (NodeId id : deepest_first_) {
      const NodeId parent = overlay.parent(id);
      if (parent == kNoNode || parent == kSourceId) continue;
      key[parent] = std::min(key[parent], key[id]);
    }
  }

 private:
  struct Window {
    std::int64_t index = -1;
    std::uint32_t spent = 0;
    bool refused = false;
  };

  const CapacityConfig& config_;
  std::vector<Window> windows_;        ///< [relay], sized with a budget
  std::vector<NodeId> deepest_first_;  ///< take_subtree_min's scratch
};

}  // namespace lagover::feed
