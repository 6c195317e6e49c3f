#include "core/node_runtime.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "core/fanout_greedy.hpp"
#include "core/greedy.hpp"
#include "core/hybrid.hpp"
#include "telemetry/health.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"

namespace lagover {

std::unique_ptr<Protocol> make_protocol(AlgorithmKind kind,
                                        SourceMode source_mode,
                                        int maintenance_patience) {
  switch (kind) {
    case AlgorithmKind::kGreedy:
      return std::make_unique<GreedyProtocol>(source_mode);
    case AlgorithmKind::kHybrid:
      return std::make_unique<HybridProtocol>(source_mode,
                                              maintenance_patience);
    case AlgorithmKind::kFanoutGreedy:
      return std::make_unique<FanoutGreedyProtocol>(source_mode);
  }
  throw InvalidArgument("unknown algorithm kind");
}

namespace {

/// Validates the fields both schedulers share and normalizes the
/// adversary layer: a book with no adversarial nodes is
/// indistinguishable from none, so it is dropped and no hook installs.
RuntimeConfig& normalized(RuntimeConfig& config) {
  LAGOVER_EXPECTS(config.maintenance_patience >= 0);
  LAGOVER_EXPECTS(config.parent_poll_miss_limit >= 1);
  if (config.adversary != nullptr && config.adversary->empty())
    config.adversary.reset();
  return config;
}

}  // namespace

NodeRuntime::NodeRuntime(Population population, RuntimeConfig& config,
                         int timeout_limit)
    : config_(normalized(config)),
      timeout_limit_(timeout_limit),
      fence_epochs_(config_.faults != nullptr ||
                    config_.adversary != nullptr),
      overlay_(std::move(population)),
      protocol_(make_protocol(config_.algorithm, config_.source_mode,
                              config_.maintenance_patience)) {
  LAGOVER_EXPECTS(timeout_limit >= 1);
  const std::size_t n = overlay_.node_count();
  timeout_counter_.assign(n, 0);
  violation_streak_.assign(n, 0);
  referral_.assign(n, kNoNode);
  referral_epoch_.assign(n, health::kNoEpoch);
  pending_source_.assign(n, 0);
  recent_partners_.assign(n, {});
  parent_poll_misses_.assign(n, 0);
  epochs_.resize(n);
  detector_.resize(n, config_.health.phi);
  grandparent_hint_.assign(n, kNoNode);
  failover_pending_.assign(n, 0);
  {
    // The book's enabled flag tracks defense_active(): a defense config
    // without an adversary layer has nothing to defend against.
    health::DefenseConfig defense = config_.defense;
    defense.enabled = defense_active();
    suspicion_.resize(n, defense);
  }
  promised_delay_.assign(n, -1);
  overlay_.set_outlet(
      [this](OverlayChange change, NodeId subject, NodeId parent) {
        on_overlay_change(change, subject, parent);
      });

  if (!config_.admission.empty()) {
    admission_ = std::make_unique<AdmissionController>(config_.admission);
    stale_cache_.reserve(kStaleCacheSize);
  }
  if (config_.adversary == nullptr) {
    oracle_ = make_oracle(config_.oracle);
  } else {
    // Every remote-delay admission decision in the protocol runs on the
    // partner's *claimed* delay — a delay-liar passes checks it would
    // truthfully fail, which is exactly the attack surface.
    protocol_->set_delay_claim(
        [book = config_.adversary](NodeId node, Delay truth) {
          return book->claimed_delay(node, truth);
        });
    // The Byzantine claim filter is the Oracle: outages and stale
    // answers apply on top of the lies.
    auto byzantine = std::make_unique<fault::ByzantineOracle>(
        config_.oracle, config_.adversary);
    byzantine_oracle_ = byzantine.get();
    if (defense_active()) {
      byzantine->set_barred(
          [this](NodeId node) { return suspicion_.barred(node); });
      if (config_.defense.oracle_plausibility) {
        byzantine->enable_plausibility_filter(true);
        byzantine->set_plausibility_reporter(
            [this](NodeId suspect, const char* cause) {
              // report_once: the filter re-examines every candidate on
              // every query, so the same lie must not re-count.
              suspicion_.report_once(suspect, 3.0, epochs_.epoch(suspect),
                                     cause);
            });
      }
    }
    oracle_ = std::move(byzantine);
  }
  // No recorder = no detour: default runs stay byte-identical.
  if (auto* recorder = telemetry::OverlayHealthRecorder::active())
    health_run_ = recorder->begin_run(overlay_.node_count());
}

NodeRuntime::~NodeRuntime() {
  if (health_run_ == 0) return;
  if (auto* recorder = telemetry::OverlayHealthRecorder::active())
    recorder->end_run(health_run_);
}

void NodeRuntime::set_oracle(std::unique_ptr<Oracle> oracle) {
  LAGOVER_EXPECTS(oracle != nullptr);
  // A replacement Oracle would bypass the Byzantine claim filter.
  LAGOVER_EXPECTS(config_.adversary == nullptr);
  oracle_ = std::move(oracle);
}

void NodeRuntime::emit(TraceEventType type, NodeId subject, NodeId partner,
                       bool attached, const char* cause) {
  const bool telem = telemetry::enabled();
  const bool bus_live = trace_bus_.has_subscribers();
  if (!telem && !bus_live) return;
  TraceEvent event{static_cast<Round>(now_), type, subject, partner, attached,
                   now_};
  event.cause = cause;
  // A structural event reports the overlay, not a node's step: it names
  // no incarnation and is no protocol message, so it stays out of the
  // trace.* counters (the health stream sums them as messages.trace).
  const bool step = !telemetry::structural(type);
  if (step && fence_epochs_ && subject != kNoNode)
    event.epoch = epochs_.epoch(subject);
  if (telem) {
    // The name varies per event, so the registry is hit directly
    // instead of through the site-cached TELEM_COUNT macro.
    if (step)
      telemetry::MetricsRegistry::instance()
          .counter(std::string("trace.") + to_string(type))
          .inc();
    telemetry::event_bus().publish(event);
  }
  if (bus_live) trace_bus_.publish(event);
}

void NodeRuntime::on_overlay_change(OverlayChange change, NodeId subject,
                                    NodeId parent) {
  switch (change) {
    case OverlayChange::kAttach:
      epochs_.record_attachment(subject, parent);
      detector_.reset(subject);
      // Record the delay the parent promised (its *claimed* delay + 1):
      // the child verifies it against reality on every maintenance poll.
      if (defense_active() && config_.defense.delay_verification)
        promised_delay_[subject] = static_cast<Delay>(
            protocol_->claimed_delay(overlay_, parent) + 1);
      emit(TraceEventType::kEdgeAttach, subject, parent, true);
      return;
    case OverlayChange::kDetach:
      epochs_.clear_lease(subject);
      detector_.reset(subject);
      promised_delay_[subject] = -1;
      emit(TraceEventType::kEdgeDetach, subject, parent);
      return;
    case OverlayChange::kOffline:
      emit(TraceEventType::kNodeOffline, subject);
      return;
    case OverlayChange::kOnline:
      emit(TraceEventType::kNodeOnline, subject);
      return;
  }
}

void NodeRuntime::audit(Round label) {
  const InvariantReport report =
      audit_invariants(overlay_, config_.algorithm, &epochs_);
  audit_violations_ += publish(report, audit_bus_, label);
}

void NodeRuntime::sample_health(SimTime t) {
  if (health_run_ == 0) return;
  auto* recorder = telemetry::OverlayHealthRecorder::active();
  if (recorder == nullptr) return;
  telemetry::HealthSample sample;
  sample.t = t;
  sample.online = overlay_.online_count();
  sample.orphans = overlay_.orphan_count();
  sample.satisfied = overlay_.satisfied_count();
  sample.unsatisfied = sample.online - sample.satisfied;
  sample.converged = sample.unsatisfied == 0;
  // One pass: fanout use over every online node (the source included),
  // DelayAt and latency slack over online consumers.
  std::vector<std::uint64_t> depth_counts;
  std::int64_t depth_sum = 0;
  std::int64_t slack_sum = 0;
  for (NodeId id = 0; id < overlay_.node_count(); ++id) {
    if (!overlay_.online(id)) continue;
    const int fanout = overlay_.fanout_of(id);
    sample.capacity += static_cast<std::uint64_t>(std::max(fanout, 0));
    if (static_cast<int>(overlay_.children(id).size()) >= fanout)
      ++sample.saturated;
    if (id == kSourceId) continue;
    if (overlay_.has_parent(id)) ++sample.edges;
    const Delay delay = overlay_.delay_at(id);
    const std::int64_t slack = overlay_.latency_of(id) - delay;
    if (static_cast<std::size_t>(delay) >= depth_counts.size())
      depth_counts.resize(static_cast<std::size_t>(delay) + 1, 0);
    ++depth_counts[static_cast<std::size_t>(delay)];
    depth_sum += delay;
    slack_sum += slack;
    if (slack < 0) ++sample.violated;
    // Consumers sit at DelayAt >= 1, so max_depth == 0 means "none yet".
    if (sample.max_depth == 0 || slack < sample.min_slack)
      sample.min_slack = slack;
    if (delay > sample.max_depth) {
      sample.max_depth = delay;
      sample.deepest_slack = slack;
    } else if (delay == sample.max_depth) {
      sample.deepest_slack = std::min(sample.deepest_slack, slack);
    }
  }
  const std::uint64_t total = sample.online;
  if (total > 0) {
    const std::uint64_t r50 = (total + 1) / 2;
    const std::uint64_t r90 = std::max<std::uint64_t>(1, (total * 9 + 9) / 10);
    const std::uint64_t r99 =
        std::max<std::uint64_t>(1, (total * 99 + 99) / 100);
    std::uint64_t seen = 0;
    for (std::size_t d = 0; d < depth_counts.size(); ++d) {
      seen += depth_counts[d];
      const auto depth = static_cast<std::int64_t>(d);
      if (sample.depth_p50 == 0 && seen >= r50) sample.depth_p50 = depth;
      if (sample.depth_p90 == 0 && seen >= r90) sample.depth_p90 = depth;
      if (sample.depth_p99 == 0 && seen >= r99) sample.depth_p99 = depth;
    }
    sample.mean_depth =
        static_cast<double>(depth_sum) / static_cast<double>(total);
    sample.mean_slack =
        static_cast<double>(slack_sum) / static_cast<double>(total);
  }
  if (sample.capacity > 0)
    sample.utilization = static_cast<double>(sample.edges) /
                         static_cast<double>(sample.capacity);
  const OverlayCounters& counters = overlay_.counters();
  sample.attaches = counters.attaches - health_counters_.attaches;
  sample.detaches = counters.detaches - health_counters_.detaches;
  sample.offlines = counters.offlines - health_counters_.offlines;
  sample.onlines = counters.onlines - health_counters_.onlines;
  health_counters_ = counters;
  recorder->note_round(health_run_, std::move(sample));
}

bool NodeRuntime::reaches(NodeId from, NodeId to) {
  return config_.faults == nullptr || config_.faults->deliver(from, to, now_);
}

NodeRuntime::OracleAnswer NodeRuntime::query_oracle(NodeId i, Rng& rng) {
  const Overlay* view = &overlay_;
  if (config_.faults != nullptr) {
    if (config_.faults->oracle_down(now_)) return {kNoNode, false, true};
    const double max_age = config_.faults->oracle_staleness(now_);
    if (max_age > 0.0) {
      if (stale_view_ == nullptr || now_ - snapshot_time_ > max_age) {
        stale_view_ = std::make_unique<Overlay>(overlay_);
        snapshot_time_ = now_;
        ++config_.faults->stats().stale_oracle_refreshes;
      }
      view = stale_view_.get();
    } else {
      // Leaving a staleness window invalidates the snapshot.
      stale_view_.reset();
    }
  }
  if (admission_ == nullptr)
    return {oracle_->sample(i, *view, rng).value_or(kNoNode)};
  switch (admission_->on_query(now_)) {
    case AdmissionController::Verdict::kAdmit: {
      const NodeId partner = oracle_->sample(i, *view, rng).value_or(kNoNode);
      if (partner != kNoNode) remember_answer(partner);
      return {partner};
    }
    case AdmissionController::Verdict::kStale:
      // Degraded service: the freshest remembered answer that is still
      // a plausible partner for i under the view and that the defense
      // ladder has not barred since. No Oracle work, no RNG:
      // deterministic and cheap by design.
      for (const NodeId cached : stale_cache_) {
        if (!DirectoryOracle::eligible(oracle_->kind(), i, cached, *view) ||
            !usable(cached))
          continue;
        ++stale_served_;
        TELEM_COUNT("oracle.stale_served", 1);
        return {cached};
      }
      // Nothing remembered qualifies: reject, so that i backs off
      // instead of spinning on empty answers.
      break;
    case AdmissionController::Verdict::kReject:
      break;
  }
  return {kNoNode, true, admission_->open(now_)};
}

void NodeRuntime::remember_answer(NodeId partner) {
  auto it = std::find(stale_cache_.begin(), stale_cache_.end(), partner);
  if (it == stale_cache_.end()) {
    // A new answer takes a fresh slot, or the oldest one once the cache
    // is full.
    if (stale_cache_.size() < kStaleCacheSize)
      stale_cache_.push_back(partner);
    else
      stale_cache_.back() = partner;
    it = stale_cache_.end() - 1;
  }
  std::rotate(stale_cache_.begin(), it, it + 1);
}

bool NodeRuntime::usable(NodeId candidate) const {
  return !defense_active() || !suspicion_.barred(candidate);
}

void NodeRuntime::report(NodeId suspect, const char* cause) {
  if (defense_active())
    suspicion_.report(suspect, 1.0, epochs_.epoch(suspect), cause);
}

health::Epoch NodeRuntime::stamp(NodeId node) const {
  return fence_epochs_ ? epochs_.epoch(node) : health::kNoEpoch;
}

bool NodeRuntime::fenced(NodeId node, health::Epoch stamped) {
  if (!fence_epochs_ || stamped == health::kNoEpoch) return false;
  if (epochs_.epoch(node) == stamped) return false;
  protocol_->note_stale_epoch();
  return true;
}

void NodeRuntime::reset_node(NodeId id) {
  timeout_counter_[id] = 0;
  violation_streak_[id] = 0;
  referral_[id] = kNoNode;
  referral_epoch_[id] = health::kNoEpoch;
  pending_source_[id] = 0;
  // A node that left (or crashed) loses its session state, including
  // the partner cache and any failover plan.
  recent_partners_[id].clear();
  grandparent_hint_[id] = kNoNode;
  failover_pending_[id] = 0;
}

void NodeRuntime::remember_partner(NodeId i, NodeId partner) {
  auto& cache = recent_partners_[i];
  const auto it =
      std::find_if(cache.begin(), cache.end(),
                   [partner](const CachedPartner& c) {
                     return c.node == partner;
                   });
  if (it != cache.end()) cache.erase(it);
  cache.insert(cache.begin(), CachedPartner{partner, stamp(partner)});
  if (cache.size() > kPartnerCacheSize) cache.resize(kPartnerCacheSize);
}

std::vector<NodeId> NodeRuntime::recent_partners(NodeId i) const {
  std::vector<NodeId> out;
  out.reserve(recent_partners_[i].size());
  for (const CachedPartner& c : recent_partners_[i]) out.push_back(c.node);
  return out;
}

void NodeRuntime::leave(NodeId id) {
  overlay_.set_offline(id);
  reset_node(id);
}

bool NodeRuntime::join(NodeId id, TraceEventType type) {
  if (overlay_.online(id)) return false;
  overlay_.set_online(id);
  reset_node(id);
  // A new incarnation: state naming the node's previous life
  // (referrals, cached partners, hints, leases) is now fenced.
  epochs_.bump(id);
  if (defense_active()) suspicion_.note_epoch(id, epochs_.epoch(id));
  emit(type, id);
  return true;
}

void NodeRuntime::crash(NodeId id, const char* cause) {
  // kCrash is emitted BEFORE the structural change: the edge_detach
  // events of the children it orphans and its node_offline follow it.
  emit(TraceEventType::kCrash, id, kNoNode, false, cause);
  if (defense_active()) {
    // A crashing parent is instability evidence in proportion to the
    // children it strands. Honest-but-unreliable nodes accrue it too:
    // an unreliable parent is a poor parent regardless of intent.
    const double orphaned =
        static_cast<double>(overlay_.children(id).size());
    if (orphaned > 0.0)
      suspicion_.report(id, orphaned, epochs_.epoch(id), "unstable_parent");
  }
  if (ladder()) {
    // Arm the ladder for the children this crash orphans: their best
    // local candidate is the crashed parent's own parent.
    const NodeId grandparent = overlay_.parent(id);
    for (const NodeId child : overlay_.children(id)) {
      grandparent_hint_[child] = grandparent;
      failover_pending_[child] = 1;
    }
  }
  leave(id);
}

bool NodeRuntime::suspect_parent(NodeId id) {
  if (config_.health.detection == health::DetectionPolicy::kPhiAccrual &&
      detector_.primed(id)) {
    // Adaptive rule: suspicion accrues with silence relative to the
    // link's own observed poll cadence. The miss counter still runs so
    // metrics stay comparable, but the verdict is phi's.
    ++parent_poll_misses_[id];
    return detector_.suspect(id, now_);
  }
  // Fixed rule (and the fallback while the phi window is unprimed).
  return ++parent_poll_misses_[id] >= config_.parent_poll_miss_limit;
}

void NodeRuntime::detach_suspected(NodeId id, NodeId parent,
                                   TraceEventType type, const char* cause,
                                   const char* evidence) {
  parent_poll_misses_[id] = 0;
  if (evidence != nullptr) report(parent, evidence);
  overlay_.detach(id);
  emit(type, id, parent, false, cause);
  if (ladder()) failover_pending_[id] = 1;
}

bool NodeRuntime::escalate_starvation(NodeId child) {
  if (static_cast<std::size_t>(child) >= overlay_.node_count()) return false;
  if (!overlay_.online(child) || !overlay_.has_parent(child)) return false;
  ++starvation_detaches_;
  // An overloaded parent is a poor parent for THIS child right now, but
  // only mild evidence against it in general — weight 1, like a missed
  // poll, not like a provable lie.
  detach_suspected(child, overlay_.parent(child), TraceEventType::kParentLost,
                   "starved", "starved");
  TELEM_COUNT("engine.starvation_detaches", 1);
  return true;
}

PollVerdict NodeRuntime::poll_parent(NodeId i,
                                     std::optional<bool> observed_violated) {
  if (overlay_.online(i) && overlay_.has_parent(i)) {
    const NodeId parent = overlay_.parent(i);
    if (config_.faults != nullptr) {
      // Epoch fence: a lease on a previous incarnation of the parent is
      // invalid no matter how healthy the link looks — re-orphan at once.
      if (!epochs_.lease_valid(i, parent)) {
        epochs_.note_fence();
        protocol_->note_stale_epoch();
        // Losing a parent to a stale lease or to silence is (mild)
        // instability evidence against it.
        detach_suspected(i, parent, TraceEventType::kEpochFenced,
                         "stale_lease", "unstable_parent");
        return PollVerdict::kSuspected;
      }
      // Dead-parent detection: a poll the fault layer cannot deliver
      // (partition or message loss) is a miss; enough misses — fixed
      // count or phi-accrual suspicion, per the health config — and i
      // concludes its parent is gone. Its subtree stays with it and
      // follows once it re-attaches.
      if (!reaches(i, parent)) {
        if (!suspect_parent(i)) return PollVerdict::kMissed;
        detach_suspected(i, parent, TraceEventType::kParentLost,
                         "missed_polls", "unstable_parent");
        return PollVerdict::kSuspected;
      }
      parent_poll_misses_[i] = 0;
      detector_.heartbeat(i, now_);
      // Poll replies piggy-back the parent's own parent: the first rung
      // of the failover ladder should the parent die.
      grandparent_hint_[i] = overlay_.parent(parent);
    }
    if (defense_active()) {
      // Child-side delay verification: compare the delay promised at
      // the last attach/poll against the chain as actually observed.
      // The promise is then refreshed to the parent's *current* claim,
      // so an honest parent whose upstream grew is charged once for the
      // growth while a liar (whose claim never matches reality) is
      // charged on every poll.
      if (config_.defense.delay_verification && overlay_.connected(i) &&
          promised_delay_[i] > 0) {
        const Delay observed = overlay_.delay_at(i);
        if (observed > promised_delay_[i])
          suspicion_.report(
              parent, std::min<double>(observed - promised_delay_[i], 3.0),
              epochs_.epoch(parent), "delay_misreport");
        promised_delay_[i] =
            static_cast<Delay>(protocol_->claimed_delay(overlay_, parent) + 1);
      }
      // Receipt audit: a free-riding parent relays no feed items, so its
      // children see no receipts over a full poll period. (Emulated via
      // the adversary book; the feed layer drops the actual pushes.)
      if (config_.defense.receipt_audit &&
          config_.adversary->withholds_feed(parent))
        report(parent, "no_receipts");
      // Ladder consequence: children abandon a barred parent at once
      // (the ladder's own verdict being executed, not new evidence).
      if (suspicion_.barred(parent)) {
        ++quarantine_detaches_;
        detach_suspected(i, parent, TraceEventType::kParentQuarantined,
                         "quarantined", nullptr);
        return PollVerdict::kSuspected;
      }
    }
    // A node's DelayAt knowledge is piggy-backed down its chain, so
    // under an adversary the self-check runs on the parent's *reported*
    // delay: a delay-liar's direct children believe claim + 1 and stay
    // put while truly violated — the lie hides the damage from its
    // victims. (Takes precedence over stale knowledge; the delay
    // verification above measures actual arrival times, which the
    // parent cannot fake.)
    if (config_.adversary != nullptr)
      observed_violated =
          protocol_->claimed_delay(overlay_, parent) + 1 >
          overlay_.latency_of(i);
  }
  return maintenance_step(i, observed_violated) ? PollVerdict::kDetached
                                                : PollVerdict::kStayed;
}

bool NodeRuntime::try_failover(NodeId i) {
  if (failover_pending_[i] == 0) return false;
  failover_pending_[i] = 0;
  const NodeId grandparent_hint = grandparent_hint_[i];
  grandparent_hint_[i] = kNoNode;
  if (!overlay_.online(i) || overlay_.has_parent(i)) return false;
  TELEM_SCOPE("core.failover_step");

  // Ladder rung 1: the grandparent hint (piggy-backed on poll replies).
  // Ladder rung 2..: cached recent partners, most recent first.
  std::vector<CachedPartner> candidates;
  if (grandparent_hint != kNoNode && grandparent_hint != i)
    candidates.push_back({grandparent_hint, stamp(grandparent_hint)});
  for (const CachedPartner& c : recent_partners_[i])
    if (c.node != grandparent_hint) candidates.push_back(c);

  for (const CachedPartner& c : candidates) {
    if (c.node == i || !overlay_.online(c.node)) continue;
    if (fenced(c.node, c.epoch)) continue;
    if (!usable(c.node)) continue;
    if (c.node != kSourceId) {
      if (!overlay_.can_attach(i, c.node)) continue;
      // Keep i's own bound: attaching under c must not leave i violated.
      // Runs on c's *reported* delay — the failover path is as blind to
      // delay-liars as the Oracle path.
      if (protocol_->claimed_delay(overlay_, c.node) + 1 >
          overlay_.latency_of(i))
        continue;
    }
    if (!reaches(i, c.node)) continue;
    bool attached = false;
    if (c.node == kSourceId) {
      attached = protocol_->contact_source(overlay_, i);
    } else {
      overlay_.attach(i, c.node);
      attached = true;
    }
    if (!attached) continue;
    timeout_counter_[i] = 0;
    ++failover_attaches_;
    emit(TraceEventType::kFailoverAttach, i, c.node, true);
    return true;
  }
  return false;
}

StepOutcome NodeRuntime::orphan_step(NodeId i, Rng& rng) {
  if (!overlay_.online(i) || overlay_.has_parent(i)) return {};
  TELEM_SCOPE("core.orphan_step");

  // Timeout / explicit source referral => direct source contact
  // (Algorithm 2 steps 2-8), resetting the timeout counter regardless of
  // the outcome ("Reset counter for Timeout").
  if (pending_source_[i] != 0 || timeout_counter_[i] >= timeout_limit_) {
    if (!reaches(i, kSourceId)) {
      // The request was lost in flight: keep the pending referral so
      // the next step retries the source instead of re-earning the
      // timeout from scratch.
      pending_source_[i] = 1;
      emit(TraceEventType::kSourceContactFailed, i, kSourceId);
      return {kSourceId, false, false};
    }
    pending_source_[i] = 0;
    timeout_counter_[i] = 0;
    referral_[i] = kNoNode;
    const bool attached = protocol_->contact_source(overlay_, i);
    emit(TraceEventType::kSourceContact, i, kSourceId, attached);
    return {kSourceId, true, attached};
  }

  // Pick a partner: last referral when still usable, Oracle otherwise.
  // A referral naming a peer that re-incarnated since it was issued is
  // fenced: the grant belonged to the previous incarnation.
  NodeId partner = kNoNode;
  if (referral_[i] != kNoNode) {
    const NodeId r = referral_[i];
    const health::Epoch r_epoch = referral_epoch_[i];
    referral_[i] = kNoNode;
    referral_epoch_[i] = health::kNoEpoch;
    if (r != i && r != kSourceId && overlay_.online(r) &&
        !fenced(r, r_epoch) && usable(r))
      partner = r;
  }
  if (partner == kNoNode) {
    const OracleAnswer answer = query_oracle(i, rng);
    partner = answer.partner;
    if (answer.down) {
      // Oracle outage: fall back to the most recent cached partner that
      // is still a plausible peer. Deterministic (no RNG) and only
      // engaged while the Oracle is dark.
      for (const CachedPartner& cached : recent_partners_[i]) {
        if (cached.node != i && cached.node != kSourceId &&
            overlay_.online(cached.node) &&
            !fenced(cached.node, cached.epoch) && usable(cached.node)) {
          partner = cached.node;
          break;
        }
      }
    }
    if (partner == kNoNode) {
      // "It may happen that the Oracle finds no suitable j, and the peer
      // needs to wait and try again." Waiting still counts toward the
      // timeout, which is the escape hatch for starved peers.
      ++timeout_counter_[i];
      emit(TraceEventType::kOracleEmpty, i);
      return {kNoNode, true, false, answer.rejected};
    }
  }

  // A stale Oracle view can hand out a peer that has already left; the
  // contact then simply fails. Likewise the fault layer can lose the
  // interaction request. Both count toward the timeout (the node wasted
  // a step) and trigger the caller's retry/backoff policy.
  if (!overlay_.online(partner) || !reaches(i, partner)) {
    ++timeout_counter_[i];
    emit(TraceEventType::kInteractionFailed, i, partner);
    return {partner, false, false};
  }

  // Byzantine fanout-liar: the request arrived but the partner refuses
  // the interaction it solicited capacity for. A wasted step for i (it
  // counts toward the timeout and triggers backoff) and first-hand
  // evidence for the defense ladder.
  if (config_.adversary != nullptr &&
      config_.adversary->rejects_child(partner)) {
    ++timeout_counter_[i];
    report(partner, "byzantine_reject");
    emit(TraceEventType::kInteractionFailed, i, partner, false,
         "byzantine_reject");
    return {partner, false, false};
  }

  const InteractionResult result = protocol_->interact(overlay_, i, partner);
  emit(TraceEventType::kInteraction, i, partner, result.attached);
  remember_partner(i, partner);
  if (result.referral.has_value()) {
    if (*result.referral == kSourceId) {
      pending_source_[i] = 1;
    } else {
      referral_[i] = *result.referral;
      referral_epoch_[i] = stamp(*result.referral);
    }
  }
  if (overlay_.has_parent(i)) {
    timeout_counter_[i] = 0;
  } else {
    ++timeout_counter_[i];
  }
  return {partner, true, overlay_.has_parent(i)};
}

bool NodeRuntime::maintenance_step(NodeId i,
                                   std::optional<bool> observed_violated) {
  if (!overlay_.online(i) || !overlay_.has_parent(i)) {
    violation_streak_[i] = 0;
    return false;
  }
  TELEM_SCOPE("core.maintenance_step");
  // Delay slack l_i - DelayAt(i): how much latency headroom the node
  // has. Negative slack = bound violated; shifted by +1 so a slack of 0
  // lands in a finite bucket instead of underflow.
  TELEM_HIST("core.delay_slack",
             static_cast<double>(overlay_.latency_of(i)) -
                 static_cast<double>(overlay_.delay_at(i)) + 1.0);
  // For connected nodes this is the paper's condition (DelayAt > l with
  // Root = 0). For detached nodes DelayAt is the *optimistic* delay —
  // the best achievable once the group root attaches — so exceeding l
  // means the position is hopeless and waiting for Root = 0 only delays
  // the inevitable detach.
  const bool violated = observed_violated.has_value()
                            ? *observed_violated
                            : overlay_.delay_at(i) > overlay_.latency_of(i);
  if (!violated) {
    violation_streak_[i] = 0;
    return false;
  }
  if (++violation_streak_[i] > protocol_->maintenance_patience()) {
    overlay_.detach(i);
    violation_streak_[i] = 0;
    ++maintenance_detaches_;
    emit(TraceEventType::kMaintenanceDetach, i);
    return true;
  }
  return false;
}

}  // namespace lagover
