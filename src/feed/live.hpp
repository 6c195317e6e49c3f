// Live dissemination: feed delivery over an overlay that is being
// built and churned AT THE SAME TIME — the end-to-end situation a real
// RSS swarm lives in, which the paper's evaluation splits into separate
// construction and (implicit) dissemination phases.
//
// Time advances in ticks; one tick = one construction round = one
// latency unit. Every tick: churn + construction act, the source
// publishes on its schedule, direct children poll the source, and every
// other connected node catches up to the items its *current* parent had
// one tick ago (one-hop store-and-forward, exactly the delay model the
// constraints are written against). A node that is detached or offline
// stops receiving and catches up through its next parent after
// reattaching — the staleness spike is the cost of the reconfiguration.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "feed/overload.hpp"
#include "stats/timeseries.hpp"

namespace lagover::feed {

struct LiveConfig {
  EngineConfig engine;
  /// Optional churn factory (fresh model per run).
  std::function<std::unique_ptr<ChurnModel>()> churn;
  /// One new item every `publish_every` ticks.
  Round publish_every = 3;
  Round warmup_rounds = 50;  ///< construction before measurement starts
  Round measured_rounds = 400;
  /// Per-relay capacity limits. Empty = the unlimited pre-capacity
  /// behaviour, byte-identical. With limits set, a relay transfers at
  /// most budget_at(tick) items per tick and a child's backlog beyond
  /// queue_limit loses its oldest items; with `capacity.shedding` on,
  /// nodes are served by RelayPolicy urgency and the three rules below
  /// apply as well.
  CapacityConfig capacity;
  // Live-only degradation rules, in force with `capacity.shedding` and
  // a budget. They need a relay that is refused on one tick and serves
  // again on the next, and the engine's failover ladder to re-parent
  // through; a push run over a fixed overlay has neither.

  /// While degraded, a relay serves at most
  /// max(1, ceil(children * fanout_factor)) distinct children per tick,
  /// concentrating its budget on the tightest deadlines.
  double fanout_factor = 0.5;
  /// Consecutive budget-clean ticks before a degraded relay returns to
  /// full fanout — hysteresis so recovery does not flap.
  int recovery_ticks = 3;
  /// Consecutive starved ticks before a child escalates through the
  /// suspicion/failover ladder. Deliberately chronic: during a transient
  /// squeeze every backlogged child starves for a few ticks, and eager
  /// re-parenting turns that into a detach storm that outdamages the
  /// overload itself (a detached relay starves its whole subtree while
  /// it queues at the admission-limited Oracle). Escalation is the
  /// remedy for a persistently dead parent, not a busy one.
  int starve_limit = 30;
  /// Consumers set offline before the first tick (flash-crowd
  /// experiments park the crowd until a FlashCrowdChurn in `churn`
  /// joins them all at once). Empty = no change.
  std::vector<NodeId> park_offline;
};

struct LiveNodeStats {
  NodeId node = kNoNode;
  std::uint64_t deliveries = 0;       ///< measured items received
  std::uint64_t late_deliveries = 0;  ///< staleness above the budget
  double max_staleness = 0.0;
};

struct LiveReport {
  std::uint64_t items_published = 0;  ///< during the measured window
  std::vector<LiveNodeStats> nodes;
  /// Fraction of (item, node) deliveries within the node's budget,
  /// over the measured window.
  double on_time_fraction = 0.0;
  std::uint64_t total_deliveries = 0;
  std::uint64_t total_late = 0;
  /// Per-tick fraction of online nodes whose newest item is within
  /// their staleness budget ("freshness"), for timelines.
  TimeSeries freshness;
  /// Capacity model: item transfers deferred by an exhausted relay
  /// budget or fanout gate (the child falls behind; the items stay
  /// fetchable) and pending items dropped permanently by the per-child
  /// backlog bound.
  std::uint64_t shed_items = 0;
  std::uint64_t queue_drops = 0;
  /// Children the degradation ladder detached from a starving parent.
  std::uint64_t starvation_detaches = 0;
  /// Relay-ticks spent in the degraded (reduced-fanout) state.
  std::uint64_t degraded_relay_ticks = 0;
  /// Largest per-child pending backlog observed.
  std::uint64_t max_backlog = 0;
  /// Oracle admission layer (0 when the engine config declares none).
  std::uint64_t oracle_rejected = 0;
  std::uint64_t oracle_stale_served = 0;
  std::uint64_t oracle_breaker_trips = 0;
  /// Paper-invariant violations seen by the engine's periodic audit
  /// (always 0 in builds without LAGOVER_AUDIT).
  std::uint64_t audit_violations = 0;
};

/// Runs construction + churn + dissemination in one timeline.
LiveReport run_live_dissemination(const Population& population,
                                  const LiveConfig& config);

}  // namespace lagover::feed
