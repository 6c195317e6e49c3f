#include "feed/dissemination.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "feed/reliability.hpp"
#include "metrics/tree_metrics.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/perf.hpp"
#include "telemetry/span.hpp"

namespace lagover::feed {

namespace {

/// Transient simulation state for one dissemination run. Both entry
/// points run this one event loop: the ideal model is the case with
/// loss, duplicates and repair at zero.
class Dissemination {
 public:
  /// `stream` seeds the RNG behind poll phases, repair phases and the
  /// per-push loss and duplicate rolls.
  Dissemination(const Overlay& overlay, const LossyConfig& config,
                std::uint64_t stream)
      : overlay_(overlay),
        config_(config),
        source_(sim_, config.base.source),
        rng_(stream),
        policy_(config_.base.capacity, overlay.node_count()),
        pending_(config.base.capacity.queue_limit != 0 ? overlay.node_count()
                                                       : 0) {
    LAGOVER_EXPECTS(config.base.poll_period > 0.0);
    LAGOVER_EXPECTS(config.base.hop_delay >= 0.0);
    // An empty book holds no free-riders; normalize so the hot path has
    // a single null check.
    if (config_.adversary != nullptr && config_.adversary->empty())
      config_.adversary.reset();
    // The overlay is fixed for the run, so each child's tightest
    // deadline below it is computed once.
    if (capacity().shedding && capacity().relay_budget != 0) {
      for (NodeId id = 0; id < overlay_.node_count(); ++id)
        tightest_.push_back(static_cast<double>(overlay_.latency_of(id)));
      policy_.take_subtree_min(overlay_, tightest_);
    }
  }

  void run(SimTime duration) {
    source_.start();
    last_pulled_.assign(overlay_.node_count(), 0);
    receipts_.assign(overlay_.node_count(), {});

    if (config_.base.push_source) {
      // Push-capable source: every published item is pushed straight to
      // the direct children (no poll-period staleness, no empty
      // requests); each delivery still costs a hop delay.
      source_.set_on_publish([this](const FeedItem& item) {
        forward(kSourceId, item, 0, sim_.now());
      });
    } else {
      // Pull-only source (RSS): each direct child polls with period T
      // at a random phase (real aggregators are not synchronized).
      for (NodeId poller : overlay_.children(kSourceId)) {
        if (!overlay_.online(poller)) continue;
        ++pollers_;
        const double phase =
            rng_.uniform_real(0.0, config_.base.poll_period);
        sim_.schedule_after(phase, [this, poller] { poll(poller); });
      }
    }
    if (config_.enable_recovery) {
      for (NodeId id = 1; id < overlay_.node_count(); ++id) {
        if (!overlay_.online(id) || !overlay_.connected(id)) continue;
        if (overlay_.parent(id) == kSourceId) continue;  // polls are reliable
        const double phase =
            rng_.uniform_real(0.0, config_.recovery_period);
        sim_.schedule_after(phase, [this, id] { recover(id); });
      }
    }
    sim_.run_until(duration);
    // The run's message counters, once per run for both entry points;
    // feed.push_messages is registered only when nonzero.
    if (push_messages_ != 0) TELEM_COUNT("feed.push_messages", push_messages_);
    TELEM_COUNT("feed.source_requests", source_.requests());
  }

  DisseminationReport ideal_report(SimTime duration) const {
    DisseminationReport report;
    report.duration = duration;
    report.items_published = source_.published();
    report.source_requests = source_.requests();
    report.source_empty_requests = source_.empty_requests();
    report.source_request_rate =
        duration > 0.0 ? static_cast<double>(source_.requests()) / duration
                       : 0.0;
    report.push_messages = push_messages_;
    report.pollers = pollers_;
    report.shed_pushes = shed_pushes_;
    report.queue_drops = queue_drops_;

    for (NodeId id = 1; id < overlay_.node_count(); ++id) {
      if (!overlay_.online(id) || !overlay_.connected(id)) continue;
      NodeDeliveryStats stats;
      stats.node = id;
      double total = 0.0;
      for (const FeedItem& item : source_.items()) {
        if (!has(id, item.seq)) continue;
        const double staleness =
            receipts_[id].at[item.seq] - item.published_at;
        ++stats.items;
        total += staleness;
        stats.max_staleness = std::max(stats.max_staleness, staleness);
      }
      if (stats.items != 0)
        stats.mean_staleness = total / static_cast<double>(stats.items);
      stats.latency_constraint = overlay_.latency_of(id);
      // Small epsilon: the staleness bound is exactly l in the idealized
      // unit model; floating-point scheduling noise must not flag it.
      stats.constraint_met =
          stats.max_staleness <=
          static_cast<double>(stats.latency_constraint) + 1e-9;
      if (!stats.constraint_met) ++report.violations;
      report.nodes.push_back(stats);
    }
    return report;
  }

  LossyReport lossy_report(SimTime duration) const {
    LossyReport report;
    report.duration = duration;
    report.items_published = source_.published();
    report.push_deliveries = pushed_;
    report.recovered_deliveries = recovered_;
    report.lost_pushes = lost_;
    report.recovery_pulls = recovery_pulls_;
    report.applications = pushed_ + recovered_;
    report.duplicate_pushes = duplicate_pushes_;
    report.duplicates_suppressed = suppressed_;
    report.nacked_items = nacked_items_;
    report.withheld_pushes = withheld_;
    report.shed_pushes = shed_pushes_;
    report.queue_drops = queue_drops_;

    // Exclude the tail window where deliveries may still be in flight.
    const TreeMetrics metrics = compute_tree_metrics(overlay_);
    const double settle = config_.base.poll_period +
                          metrics.max_depth * config_.base.hop_delay +
                          2.0 * config_.recovery_period;
    const double cutoff = duration - settle;

    std::uint64_t counted_items = 0;
    for (const FeedItem& item : source_.items())
      if (item.published_at <= cutoff) ++counted_items;

    std::uint64_t delivered = 0;
    for (NodeId id = 1; id < overlay_.node_count(); ++id) {
      if (!overlay_.online(id) || !overlay_.connected(id)) continue;
      ++report.connected_consumers;
      const double budget = static_cast<double>(overlay_.latency_of(id));
      for (const FeedItem& item : source_.items()) {
        if (item.published_at > cutoff) break;
        if (!has(id, item.seq)) continue;
        ++delivered;
        const double staleness =
            receipts_[id].at[item.seq] - item.published_at;
        if (staleness > budget + 1e-9) ++report.late_deliveries;
      }
    }
    report.expected_deliveries =
        counted_items * report.connected_consumers;
    report.delivery_ratio =
        report.expected_deliveries == 0
            ? 1.0
            : static_cast<double>(delivered) /
                  static_cast<double>(report.expected_deliveries);
    return report;
  }

 private:
  /// One node's receipts, indexed by sequence number: `got` is set once
  /// the item is applied, `at` holds the time it was.
  struct Receipts {
    std::vector<char> got;
    std::vector<SimTime> at;
  };

  const CapacityConfig& capacity() const noexcept {
    return config_.base.capacity;
  }

  bool has(NodeId node, std::uint64_t seq) const {
    const auto& got = receipts_[node].got;
    return seq < got.size() && got[seq] != 0;
  }

  void mark(NodeId node, std::uint64_t seq, SimTime when) {
    Receipts& receipts = receipts_[node];
    if (seq >= receipts.got.size()) {
      receipts.got.resize(seq + 1, 0);
      receipts.at.resize(seq + 1, -1.0);
    }
    receipts.got[seq] = 1;
    receipts.at[seq] = when;
  }

  /// Emits one span; all identity comes from the threaded (from, hop,
  /// sent_at) so the exported chain is exact even under loss,
  /// duplication, and repair.
  void record_hop(telemetry::SpanKind kind, NodeId node, const FeedItem& item,
                  NodeId from, std::uint32_t hop, SimTime sent_at,
                  const char* cause) {
    if (!telemetry::enabled()) return;
    telemetry::ItemSpan span;
    span.item = item.seq;
    span.kind = kind;
    span.node = node;
    span.parent = from;
    span.hop = hop;
    span.published_at = item.published_at;
    span.start = sent_at;
    span.ts = sim_.now();
    if (kind == telemetry::SpanKind::kSourcePoll ||
        kind == telemetry::SpanKind::kDeliver ||
        kind == telemetry::SpanKind::kRepair)
      span.deadline = static_cast<double>(overlay_.latency_of(node));
    span.cause = cause;
    telemetry::record_span(span);
  }

  void poll(NodeId poller) {
    for (const FeedItem& item : source_.pull(last_pulled_[poller])) {
      last_pulled_[poller] = item.seq;
      // The poll hop starts at publication: the item sat at the source
      // from then until this poll fired.
      deliver(poller, item, /*via_recovery=*/false, kSourceId, 1,
              item.published_at);
    }
    sim_.schedule_after(config_.base.poll_period,
                        [this, poller] { poll(poller); });
  }

  /// Receipt of `item` at `node`, sent by `from` as the node's `hop`-th
  /// overlay hop at `sent_at`.
  void deliver(NodeId node, FeedItem item, bool via_recovery, NodeId from,
               std::uint32_t hop, SimTime sent_at, const char* cause = "") {
    // Duplicate suppression: the sequence number is the identity, so a
    // copy of an already-applied item is dropped (and counted) here —
    // each consumer applies every item at most once.
    if (has(node, item.seq)) {
      ++suppressed_;
      record_hop(telemetry::SpanKind::kDuplicate, node, item, from, hop,
                 sent_at, cause[0] != '\0' ? cause : "suppressed");
      return;
    }
    mark(node, item.seq, sim_.now());
    if (via_recovery)
      ++recovered_;
    else
      ++pushed_;
    record_hop(via_recovery ? telemetry::SpanKind::kRepair
               : from == kSourceId && !config_.base.push_source
                   ? telemetry::SpanKind::kSourcePoll
                   : telemetry::SpanKind::kDeliver,
               node, item, from, hop, sent_at, cause);
    // First receipt: forward downstream, regardless of how the item
    // arrived — recovered items keep flowing.
    const SimTime forward_at = sim_.now();
    // Free-rider (adversary layer): the node applies the item for
    // itself but never relays it — its whole subtree starves on pushes
    // and must live off repair pulls from... this same node, which
    // ignores those too (see recover()).
    if (config_.adversary != nullptr &&
        config_.adversary->withholds_feed(node)) {
      for (NodeId child : overlay_.children(node)) {
        if (!overlay_.online(child)) continue;
        ++withheld_;
        record_hop(telemetry::SpanKind::kDrop, child, item, node, hop + 1,
                   forward_at, "free_ride");
      }
      return;
    }
    if (forward(node, item, hop, forward_at))
      record_hop(telemetry::SpanKind::kRelay, node, item, from, hop,
                 forward_at, "");
  }

  /// Sends `item`, which reached `node` at its `hop`-th overlay hop, to
  /// every forward target; returns whether any push left. Per child:
  /// budget shed, then the loss roll, then the queue bound. The shed
  /// check runs before the roll, so a shed child costs no RNG draw and
  /// capacity-free runs stay byte-identical; a push lost on the link
  /// never takes a queue slot. With repair on, dropped items are not
  /// gone: the repair loop recovers them later — overload costs
  /// staleness, not items (graceful degradation).
  bool forward(NodeId node, const FeedItem& item, std::uint32_t hop,
               SimTime sent_at) {
    bool forwarded = false;
    for (NodeId child : forward_targets(node, item)) {
      if (!policy_.spend(node, sim_.now())) {
        ++shed_pushes_;
        TELEM_COUNT("feed.shed", 1);
        record_hop(telemetry::SpanKind::kDrop, child, item, node, hop + 1,
                   sent_at, "shed");
        continue;
      }
      if (rng_.bernoulli(config_.push_loss)) {
        ++lost_;
        record_hop(telemetry::SpanKind::kDrop, child, item, node, hop + 1,
                   sent_at, "push_loss");
        continue;
      }
      if (capacity().queue_limit != 0) {
        if (pending_[child] >= capacity().queue_limit) {
          ++queue_drops_;
          TELEM_COUNT("feed.queue_dropped", 1);
          record_hop(telemetry::SpanKind::kDrop, child, item, node, hop + 1,
                     sent_at, "queue_full");
          continue;
        }
        ++pending_[child];
        TELEM_GAUGE("feed.queue_depth", static_cast<double>(pending_[child]));
      }
      forwarded = true;
      ++push_messages_;
      sim_.schedule_after(config_.base.hop_delay,
                          [this, child, item, node, hop, sent_at] {
        release_slot(child);
        deliver(child, item, /*via_recovery=*/false, node, hop + 1, sent_at);
      });
      // Duplicate injection (at-least-once transport): the guard comes
      // first so duplicate_probability == 0 draws no extra RNG. The copy
      // rides the original's queue slot.
      if (config_.duplicate_probability > 0.0 &&
          rng_.bernoulli(config_.duplicate_probability)) {
        ++duplicate_pushes_;
        sim_.schedule_after(config_.base.hop_delay,
                            [this, child, item, node, hop, sent_at] {
          deliver(child, item, /*via_recovery=*/false, node, hop + 1,
                  sent_at, "duplicate_push");
        });
      }
    }
    return forwarded;
  }

  /// Online children of `node`, in forwarding order. Under shedding
  /// with a budget, children rank by `item`'s urgency against the
  /// tightest deadline in their subtrees, so when the budget runs out
  /// the children whose subtrees have the most slack (who can absorb
  /// staleness) are the ones shed; ties break by id, so the order — and
  /// everything downstream of it — stays deterministic. The result
  /// lives in `targets_`, one buffer reused for every relay: forward()
  /// reads it before anything else can refill it.
  const std::vector<NodeId>& forward_targets(NodeId node,
                                             const FeedItem& item) {
    targets_.clear();
    for (NodeId child : overlay_.children(node))
      if (overlay_.online(child)) targets_.push_back(child);
    if (!tightest_.empty() && targets_.size() > 1) {
      const auto key = [&, now = sim_.now()](NodeId child) {
        return RelayPolicy::urgency(item.published_at, tightest_[child], now);
      };
      std::stable_sort(targets_.begin(), targets_.end(),
                       [&key](NodeId a, NodeId b) { return key(a) < key(b); });
    }
    return targets_;
  }

  /// Releases `child`'s pending-queue slot when a forward lands.
  void release_slot(NodeId child) {
    if (capacity().queue_limit == 0) return;
    if (pending_[child] > 0) --pending_[child];
    TELEM_GAUGE("feed.queue_depth", static_cast<double>(pending_[child]));
  }

  void recover(NodeId node) {
    const NodeId parent = overlay_.parent(node);
    LAGOVER_ASSERT(parent != kNoNode && parent != kSourceId);
    // A free-riding parent ignores repair requests as well: the pull is
    // sent (and counted) but never answered.
    if (config_.adversary != nullptr &&
        config_.adversary->withholds_feed(parent)) {
      ++recovery_pulls_;
      sim_.schedule_after(config_.recovery_period,
                          [this, node] { recover(node); });
      return;
    }
    // The parent answers after one hop delay with every item it has
    // that `node` lacks (the gaps up to its high-water mark). Blanket
    // anti-entropy pulls once per period; a NACK names exactly the gaps
    // and is sent only when there are some — the same repair set with
    // strictly fewer repair messages.
    const auto& parent_got = receipts_[parent].got;
    gaps_.clear();
    for (std::uint64_t seq = 1; seq < parent_got.size(); ++seq)
      if (parent_got[seq] != 0 && !has(node, seq)) gaps_.push_back(seq);
    const bool nack = config_.repair == RepairMode::kNack;
    if (!nack || !gaps_.empty()) ++recovery_pulls_;
    if (nack) nacked_items_ += gaps_.size();
    const auto hop = static_cast<std::uint32_t>(overlay_.delay_at(node));
    const SimTime sent_at = sim_.now();
    const char* cause = nack ? "nack" : "anti_entropy";
    for (const std::uint64_t seq : gaps_) {
      const FeedItem item = source_.items()[seq - 1];
      sim_.schedule_after(config_.base.hop_delay,
                          [this, node, item, parent, hop, sent_at, cause] {
        deliver(node, item, /*via_recovery=*/true, parent, hop, sent_at,
                cause);
      });
    }
    sim_.schedule_after(config_.recovery_period,
                        [this, node] { recover(node); });
  }

  const Overlay& overlay_;
  LossyConfig config_;
  Simulator sim_;
  FeedSource source_;
  Rng rng_;
  std::vector<std::uint64_t> last_pulled_;
  std::vector<Receipts> receipts_;  // [node]
  /// Scratch buffers, reused across calls: forward_targets' result and
  /// recover's missing sequence numbers.
  std::vector<NodeId> targets_;
  std::vector<std::uint64_t> gaps_;
  std::size_t pollers_ = 0;
  std::uint64_t push_messages_ = 0;
  std::uint64_t pushed_ = 0;
  std::uint64_t recovered_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t recovery_pulls_ = 0;
  std::uint64_t suppressed_ = 0;
  std::uint64_t duplicate_pushes_ = 0;
  std::uint64_t nacked_items_ = 0;
  std::uint64_t withheld_ = 0;
  /// Capacity bookkeeping, each sized only when its limit is set: the
  /// relay budget windows, per-node tightest deadline in the subtree
  /// (shedding), and per-child pending (scheduled but undelivered)
  /// forwards.
  RelayPolicy policy_;
  std::vector<double> tightest_;
  std::vector<std::uint32_t> pending_;
  std::uint64_t shed_pushes_ = 0;
  std::uint64_t queue_drops_ = 0;
};

}  // namespace

DisseminationReport run_dissemination(const Overlay& overlay,
                                      const DisseminationConfig& config,
                                      SimTime duration) {
  const telemetry::PerfPhase perf_phase("dissemination");
  LossyConfig ideal;
  ideal.base = config;
  ideal.push_loss = 0.0;
  ideal.enable_recovery = false;
  Dissemination dissemination(overlay, ideal, config.seed ^ 0xFEEDULL);
  dissemination.run(duration);
  DisseminationReport report = dissemination.ideal_report(duration);
  // The ideal run's delivery counters, once per run from the report
  // totals; feed.deliveries is registered only when nonzero.
  std::uint64_t deliveries = 0;
  for (const NodeDeliveryStats& node : report.nodes) deliveries += node.items;
  if (deliveries != 0) TELEM_COUNT("feed.deliveries", deliveries);
  TELEM_COUNT("feed.items_published", report.items_published);
  return report;
}

LossyReport run_lossy_dissemination(const Overlay& overlay,
                                    const LossyConfig& config,
                                    SimTime duration) {
  const telemetry::PerfPhase perf_phase("dissemination");
  LAGOVER_EXPECTS(config.push_loss >= 0.0 && config.push_loss < 1.0);
  LAGOVER_EXPECTS(config.recovery_period > 0.0);
  LAGOVER_EXPECTS(config.duplicate_probability >= 0.0 &&
                  config.duplicate_probability < 1.0);
  // Source pushes would have no repair path: the recovery loop skips the
  // source's direct children, whose polls are reliable.
  LAGOVER_EXPECTS(!config.base.push_source);
  Dissemination dissemination(overlay, config, config.seed_mix());
  dissemination.run(duration);
  return dissemination.lossy_report(duration);
}

}  // namespace lagover::feed
