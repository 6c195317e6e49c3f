#include "feed/live.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/perf.hpp"
#include "telemetry/span.hpp"

namespace lagover::feed {

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
  // A span of item `seq` at `node` from `parent`, at `tick`.
  const auto span_of = [&published_at](telemetry::SpanKind kind,
                                       std::uint64_t seq, NodeId node,
                                       NodeId parent, Round tick,
                                       const char* cause) {
    telemetry::ItemSpan span;
    span.item = seq;
    span.kind = kind;
    span.node = node;
    span.parent = parent;
    span.published_at = static_cast<double>(published_at[seq]);
    span.start = span.ts = static_cast<double>(tick);
    span.cause = cause;
    return span;
  };

  // Capacity-model state (all inert when no limits are configured; the
  // propagation loop below then runs exactly the unlimited code path).
  const CapacityConfig& capacity = config.capacity;
  const bool capacity_on = !capacity.empty();
  RelayPolicy policy(capacity, overlay.node_count());
  // Children served this tick, degraded flag + consecutive clean ticks
  // (recovery hysteresis), and per-child consecutive starved ticks.
  const std::size_t slots = capacity_on ? overlay.node_count() : 0;
  std::vector<std::uint32_t> served_children(slots);
  std::vector<char> degraded(slots);
  std::vector<int> clean_ticks(slots);
  std::vector<int> starved_ticks(slots);

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
      if (telemetry::enabled())
        telemetry::record_span(span_of(telemetry::SpanKind::kPublish,
                                       source_seq, kSourceId, kNoNode, tick,
                                       ""));
    }

    // Synchronous one-hop propagation over the *current* tree. With
    // capacity limits, each relay transfers at most budget_at(tick)
    // items this tick; the visit order decides who gets served before
    // the budget runs out — by urgency under the shedding policy (a
    // node's key is its next pending item's, lowered to the least in
    // its subtree), plain id order (arbitrary tail drops) when
    // undefended.
    std::vector<std::uint64_t> previous = last_seq;
    const auto now = static_cast<double>(tick);
    if (capacity_on)
      std::fill(served_children.begin(), served_children.end(), 0);
    std::vector<NodeId> visit;
    visit.reserve(overlay.node_count() - 1);
    for (NodeId id = 1; id < overlay.node_count(); ++id) visit.push_back(id);
    if (capacity_on && capacity.shedding) {
      std::vector<double> urgency(overlay.node_count(), RelayPolicy::kIdle);
      for (NodeId id = 1; id < overlay.node_count(); ++id) {
        const std::uint64_t next = previous[id] + 1;
        if (next >= published_at.size()) continue;
        urgency[id] = RelayPolicy::urgency(
            static_cast<double>(published_at[next]),
            static_cast<double>(overlay.latency_of(id)), now);
      }
      policy.take_subtree_min(overlay, urgency);
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
      // Fanout gate: a degraded relay serves at most max(1,
      // ceil(children * fanout_factor)) distinct children per tick,
      // concentrating its budget on the tightest deadlines.
      bool cut_off = false;
      std::uint64_t deliver_to = target;
      if (capacity_on && capacity.shedding && degraded[parent] != 0 &&
          target > previous[id] &&
          served_children[parent] >=
              std::max(1.0, std::ceil(static_cast<double>(
                                          overlay.children(parent).size()) *
                                      config.fanout_factor))) {
        deliver_to = previous[id];
        cut_off = true;
      }
      std::uint64_t delivered_to = previous[id];
      for (std::uint64_t seq = previous[id] + 1; seq <= deliver_to; ++seq) {
        if (capacity_on && !policy.spend(parent, now)) {
          cut_off = true;
          break;
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
          telemetry::ItemSpan span =
              span_of(parent == kSourceId ? telemetry::SpanKind::kSourcePoll
                                          : telemetry::SpanKind::kDeliver,
                      seq, id, parent, tick, "");
          span.hop = static_cast<std::uint32_t>(overlay.delay_at(id));
          span.start = static_cast<double>(tick - 1);
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
        if (telemetry::enabled())
          telemetry::record_span(span_of(telemetry::SpanKind::kDrop,
                                         last_seq[id] + 1, id, parent, tick,
                                         "shed"));
      }
      // Starvation escalation: a child that wanted items and received
      // none for starve_limit consecutive ticks abandons its overloaded
      // parent through the suspicion/failover ladder (policy only —
      // undefended children just sit and starve).
      if (backlog > 0 && delivered_to == previous[id]) {
        if (++starved_ticks[id] >= config.starve_limit &&
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
        if (telemetry::enabled())
          for (std::uint64_t seq = last_seq[id] + 1;
               seq <= last_seq[id] + drop; ++seq)
            telemetry::record_span(span_of(telemetry::SpanKind::kDrop, seq,
                                           id, parent, tick, "queue_full"));
        last_seq[id] += drop;
      }
    }

    // Degradation bookkeeping with recovery hysteresis: one exhausted
    // tick degrades a relay; only recovery_ticks consecutive clean
    // ticks restore full fanout.
    if (capacity_on && capacity.shedding) {
      for (NodeId relay = 0; relay < overlay.node_count(); ++relay) {
        if (policy.exhausted(relay, now)) {
          if (degraded[relay] == 0) TELEM_COUNT("feed.relay_degraded", 1);
          degraded[relay] = 1;
          clean_ticks[relay] = 0;
        } else if (degraded[relay] != 0 &&
                   ++clean_ticks[relay] >= config.recovery_ticks) {
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
