#include "feed/live.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/perf.hpp"
#include "telemetry/span.hpp"

namespace lagover::feed {

namespace {

/// Children a degraded relay still serves per tick:
/// max(1, ceil(children * fanout_factor)).
std::size_t degraded_fanout(const Overlay& overlay, NodeId relay,
                            double factor) {
  const auto children = static_cast<double>(overlay.children(relay).size());
  const auto cap = static_cast<std::size_t>(std::ceil(children * factor));
  return std::max<std::size_t>(1, cap);
}

}  // namespace

LiveReport run_live_dissemination(const Population& population,
                                  const LiveConfig& config) {
  const telemetry::PerfPhase perf_phase("dissemination");
  LAGOVER_EXPECTS(config.publish_every >= 1);
  Engine engine(population, config.engine);
  if (config.churn) engine.set_churn(config.churn());
  for (NodeId parked : config.park_offline)
    engine.overlay().set_offline(parked);
  const Overlay& overlay = engine.overlay();

  // Item seq s (1-based) was published at published_at[s].
  std::vector<Round> published_at{0};  // index 0 unused
  std::vector<std::uint64_t> last_seq(overlay.node_count(), 0);
  std::uint64_t source_seq = 0;

  LiveReport report;
  report.nodes.resize(overlay.consumer_count());
  for (NodeId id = 1; id < overlay.node_count(); ++id)
    report.nodes[id - 1].node = id;

  // Capacity-model state (all inert when no limits are configured; the
  // propagation loop below then runs exactly the unlimited code path).
  const CapacityConfig& capacity = config.capacity;
  const bool capacity_on = !capacity.empty();
  // Per-relay item transfers this tick, children served this tick,
  // degraded flag + consecutive clean ticks (recovery hysteresis), and
  // per-child consecutive starved ticks.
  std::vector<std::uint32_t> sent_this_tick;
  std::vector<std::uint32_t> served_children;
  std::vector<char> relay_exhausted;
  std::vector<char> degraded;
  std::vector<int> clean_ticks;
  std::vector<int> starved_ticks;
  if (capacity_on) {
    sent_this_tick.assign(overlay.node_count(), 0);
    served_children.assign(overlay.node_count(), 0);
    relay_exhausted.assign(overlay.node_count(), 0);
    degraded.assign(overlay.node_count(), 0);
    clean_ticks.assign(overlay.node_count(), 0);
    starved_ticks.assign(overlay.node_count(), 0);
  }

  const Round total_rounds = config.warmup_rounds + config.measured_rounds;
  for (Round tick = 1; tick <= total_rounds; ++tick) {
    engine.run_round();

    // Items visible to the source's pollers this tick: everything
    // published strictly earlier (one poll period of delay).
    const std::uint64_t source_seq_prev = source_seq;
    if (tick % config.publish_every == 0) {
      ++source_seq;
      published_at.push_back(tick);
      if (tick > config.warmup_rounds) ++report.items_published;
      if (telemetry::enabled()) {
        telemetry::ItemSpan span;
        span.item = source_seq;
        span.kind = telemetry::SpanKind::kPublish;
        span.node = kSourceId;
        span.published_at = static_cast<double>(tick);
        span.start = span.ts = static_cast<double>(tick);
        telemetry::record_span(span);
      }
    }

    // Synchronous one-hop propagation over the *current* tree. With
    // capacity limits, each relay transfers at most budget_at(tick)
    // items this tick; the visit order decides who gets served before
    // the budget runs out — deadline-aware (tightest l_i first) under
    // the shedding policy, plain id order (arbitrary tail drops) when
    // undefended.
    std::vector<std::uint64_t> previous = last_seq;
    const std::uint32_t tick_budget =
        capacity_on ? capacity.budget_at(static_cast<double>(tick)) : 0;
    if (capacity_on) {
      std::fill(sent_this_tick.begin(), sent_this_tick.end(), 0);
      std::fill(served_children.begin(), served_children.end(), 0);
      std::fill(relay_exhausted.begin(), relay_exhausted.end(), 0);
    }
    std::vector<NodeId> visit;
    visit.reserve(overlay.node_count() - 1);
    for (NodeId id = 1; id < overlay.node_count(); ++id) visit.push_back(id);
    if (capacity_on && capacity.shedding) {
      // Deadline-aware (EDF) shedding order. A node's urgency is the
      // slack of its next pending item: published_at + l_i - now. Nodes
      // whose next item can still arrive on time go first (tightest
      // slack first) so scarce budget buys on-time deliveries; nodes
      // already past their deadline — a joined crowd catching up — go
      // last (least-late first): their misses are sunk either way, so
      // they absorb the staleness. This is what makes degradation
      // graceful: overload costs the slack-rich staleness, not the
      // slack-poor their deadlines.
      constexpr double kLateBase = 1e9;   // already-late band
      constexpr double kNoPending = 2e9;  // nothing to send: order moot
      std::vector<double> urgency(overlay.node_count(), kNoPending);
      for (NodeId id = 1; id < overlay.node_count(); ++id) {
        const std::uint64_t next = previous[id] + 1;
        if (next >= published_at.size()) continue;
        const double slack =
            static_cast<double>(published_at[next]) +
            static_cast<double>(overlay.latency_of(id)) -
            static_cast<double>(tick);
        urgency[id] = slack >= 0.0 ? slack : kLateBase - slack;
      }
      // A relay is as urgent as the most urgent node in its subtree:
      // a backlogged relay looks hopeless by its own slack, but serving
      // it is exactly what unblocks an on-time delivery downstream of
      // it. Propagate the minimum deep-to-shallow (one pass, since
      // depth strictly decreases parent-ward).
      std::vector<NodeId> by_depth = visit;
      std::stable_sort(by_depth.begin(), by_depth.end(),
                       [&](NodeId a, NodeId b) {
                         return overlay.delay_at(a) > overlay.delay_at(b);
                       });
      for (NodeId id : by_depth) {
        const NodeId parent = overlay.parent(id);
        if (parent == kNoNode || parent == kSourceId) continue;
        urgency[parent] = std::min(urgency[parent], urgency[id]);
      }
      std::stable_sort(visit.begin(), visit.end(), [&](NodeId a, NodeId b) {
        return urgency[a] < urgency[b];
      });
    }
    for (NodeId id : visit) {
      if (!overlay.online(id)) continue;
      const NodeId parent = overlay.parent(id);
      if (parent == kNoNode) continue;
      const std::uint64_t target =
          parent == kSourceId ? source_seq_prev : previous[parent];
      // Fanout gate: a degraded relay serves fewer distinct children
      // per tick, concentrating its budget on the tightest deadlines.
      bool cut_off = false;
      std::uint64_t deliver_to = target;
      if (capacity_on && capacity.shedding && degraded[parent] != 0 &&
          target > previous[id] &&
          served_children[parent] >=
              degraded_fanout(overlay, parent, capacity.fanout_factor)) {
        deliver_to = previous[id];
        cut_off = true;
      }
      std::uint64_t delivered_to = previous[id];
      for (std::uint64_t seq = previous[id] + 1; seq <= deliver_to; ++seq) {
        if (capacity_on && tick_budget != 0) {
          if (sent_this_tick[parent] >= tick_budget) {
            cut_off = true;
            relay_exhausted[parent] = 1;
            break;
          }
          ++sent_this_tick[parent];
        }
        const Round staleness = tick - published_at[seq];
        if (published_at[seq] > config.warmup_rounds) {
          auto& stats = report.nodes[id - 1];
          ++stats.deliveries;
          ++report.total_deliveries;
          if (static_cast<Delay>(staleness) > overlay.latency_of(id)) {
            ++stats.late_deliveries;
            ++report.total_late;
          }
          stats.max_staleness =
              std::max(stats.max_staleness, static_cast<double>(staleness));
        }
        if (telemetry::enabled()) {
          telemetry::ItemSpan span;
          span.item = seq;
          span.kind = parent == kSourceId ? telemetry::SpanKind::kSourcePoll
                                          : telemetry::SpanKind::kDeliver;
          span.node = id;
          span.parent = parent;
          span.hop = static_cast<std::uint32_t>(overlay.delay_at(id));
          span.published_at = static_cast<double>(published_at[seq]);
          span.start = static_cast<double>(tick - 1);
          span.ts = static_cast<double>(tick);
          span.deadline = static_cast<double>(overlay.latency_of(id));
          span.epoch = engine.epochs().epoch(id);
          telemetry::record_span(span);
        }
        delivered_to = seq;
      }
      if (delivered_to > last_seq[id]) last_seq[id] = delivered_to;
      if (!capacity_on) continue;

      if (delivered_to > previous[id]) ++served_children[parent];
      const std::uint64_t backlog =
          target > last_seq[id] ? target - last_seq[id] : 0;
      report.max_backlog = std::max(report.max_backlog, backlog);
      TELEM_GAUGE("feed.queue_depth", static_cast<double>(backlog));
      if (cut_off && backlog > 0) {
        // Deferred, not lost: the child is behind and will catch up
        // when capacity allows — every deferred transfer costs
        // staleness, which is exactly graceful degradation.
        report.shed_items += backlog;
        if (telemetry::enabled()) {
          telemetry::ItemSpan span;
          span.item = last_seq[id] + 1;
          span.kind = telemetry::SpanKind::kDrop;
          span.node = id;
          span.parent = parent;
          span.published_at =
              static_cast<double>(published_at[last_seq[id] + 1]);
          span.start = span.ts = static_cast<double>(tick);
          span.cause = "shed";
          telemetry::record_span(span);
        }
      }
      // Starvation escalation: a child that wanted items and received
      // none for starve_limit consecutive ticks abandons its overloaded
      // parent through the suspicion/failover ladder (policy only —
      // undefended children just sit and starve).
      if (backlog > 0 && delivered_to == previous[id]) {
        if (++starved_ticks[id] >= capacity.starve_limit &&
            capacity.shedding) {
          engine.escalate_starvation(id);
          starved_ticks[id] = 0;
        }
      } else {
        starved_ticks[id] = 0;
      }
      // Bounded backlog: beyond queue_limit the oldest pending items
      // are dropped permanently (the child will never fetch them).
      if (capacity.queue_limit != 0 && backlog > capacity.queue_limit) {
        const std::uint64_t drop = backlog - capacity.queue_limit;
        report.queue_drops += drop;
        TELEM_COUNT("feed.queue_dropped", drop);
        if (telemetry::enabled()) {
          for (std::uint64_t seq = last_seq[id] + 1;
               seq <= last_seq[id] + drop; ++seq) {
            telemetry::ItemSpan span;
            span.item = seq;
            span.kind = telemetry::SpanKind::kDrop;
            span.node = id;
            span.parent = parent;
            span.published_at = static_cast<double>(published_at[seq]);
            span.start = span.ts = static_cast<double>(tick);
            span.cause = "queue_full";
            telemetry::record_span(span);
          }
        }
        last_seq[id] += drop;
      }
    }

    // Degradation bookkeeping with recovery hysteresis: one exhausted
    // tick degrades a relay; only recovery_ticks consecutive clean
    // ticks restore full fanout.
    if (capacity_on && capacity.shedding) {
      for (NodeId relay = 0; relay < overlay.node_count(); ++relay) {
        if (relay_exhausted[relay] != 0) {
          if (degraded[relay] == 0) TELEM_COUNT("feed.relay_degraded", 1);
          degraded[relay] = 1;
          clean_ticks[relay] = 0;
        } else if (degraded[relay] != 0 &&
                   ++clean_ticks[relay] >= capacity.recovery_ticks) {
          degraded[relay] = 0;
          clean_ticks[relay] = 0;
        }
        if (degraded[relay] != 0) ++report.degraded_relay_ticks;
      }
    }

    // Freshness: a node is fresh when it already has every item old
    // enough that its budget requires it.
    if (tick > config.warmup_rounds && overlay.online_count() > 0) {
      std::size_t fresh = 0;
      for (NodeId id = 1; id < overlay.node_count(); ++id) {
        if (!overlay.online(id)) continue;
        // Newest seq whose age is at least the node's budget.
        std::uint64_t due = 0;
        for (std::uint64_t seq = source_seq; seq >= 1; --seq) {
          if (published_at[seq] + overlay.latency_of(id) <= tick) {
            due = seq;
            break;
          }
        }
        if (last_seq[id] >= due) ++fresh;
      }
      report.freshness.add(static_cast<double>(tick),
                           static_cast<double>(fresh) /
                               static_cast<double>(overlay.online_count()));
    }
  }

  report.on_time_fraction =
      report.total_deliveries == 0
          ? 1.0
          : 1.0 - static_cast<double>(report.total_late) /
                      static_cast<double>(report.total_deliveries);
  report.starvation_detaches = engine.runtime().starvation_detaches();
  if (const AdmissionController* control = engine.runtime().admission()) {
    report.oracle_rejected = control->rejected();
    report.oracle_breaker_trips = control->breaker_trips();
  }
  if (const AdmittedOracle* oracle = engine.runtime().admitted_oracle())
    report.oracle_stale_served = oracle->stale_served();
  report.audit_violations = engine.audit_violations();
  return report;
}

}  // namespace lagover::feed
