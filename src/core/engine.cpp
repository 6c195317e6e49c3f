#include "core/engine.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/perf.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"

namespace lagover {

Engine::Engine(Population population, EngineConfig config)
    : config_(std::move(config)),
      runtime_(std::move(population), config_, config_.timeout_rounds),
      rng_(config_.seed) {
  runtime_.protocol().set_orphaning_displacement(
      config_.orphaning_displacement);
  if (!config_.admission.empty()) {
    admission_defer_.assign(runtime_.overlay().node_count(), 0);
    admission_attempts_.assign(runtime_.overlay().node_count(), 0);
  }
}

void Engine::set_oracle(std::unique_ptr<Oracle> oracle) {
  LAGOVER_EXPECTS(!started_);
  runtime_.set_oracle(std::move(oracle));
}

void Engine::set_churn(std::unique_ptr<ChurnModel> churn) {
  churn_ = std::move(churn);
}

void Engine::clear_admission_backoff(NodeId id) {
  if (admission_defer_.empty()) return;
  admission_defer_[id] = 0;
  admission_attempts_[id] = 0;
}

void Engine::apply_churn() {
  if (!churn_) return;
  const ChurnModel::Decision decision =
      churn_->decide(round_, runtime_.overlay(), rng_);
  for (NodeId id : decision.leave) {
    if (!runtime_.overlay().online(id)) continue;
    runtime_.leave(id);
    clear_admission_backoff(id);
    // Announced once the node is gone (the asynchronous engine
    // announces first; recorded event streams pin both orders).
    runtime_.emit(TraceEventType::kChurnLeave, id);
  }
  for (NodeId id : decision.join) runtime_.join(id);
}

void Engine::crash_node(NodeId id, double downtime, const char* cause) {
  runtime_.crash(id, cause);
  clear_admission_backoff(id);
  const Round back =
      round_ + std::max<Round>(1, static_cast<Round>(std::ceil(downtime)));
  crash_rejoins_.emplace_back(back, id);
}

void Engine::apply_scheduled_crashes() {
  // Flapper duty cycles and correlated domain-outage windows are pure
  // functions of (node, time) — no engine RNG — applied as a dedicated
  // pass so both attached nodes and orphans go down on schedule.
  const Overlay& overlay = runtime_.overlay();
  const auto t = static_cast<SimTime>(round_);
  if (config_.adversary != nullptr) {
    for (NodeId id = 1; id < overlay.node_count(); ++id)
      if (overlay.online(id) && config_.adversary->flapping_down(id, t))
        crash_node(id, config_.adversary->flap_remaining(id, t), "flap");
  }
  if (config_.faults != nullptr && config_.faults->domains() != nullptr) {
    for (NodeId id = 1; id < overlay.node_count(); ++id) {
      if (!overlay.online(id)) continue;
      const double outage = config_.faults->domain_crash_outage(id, t);
      if (outage > 0.0) crash_node(id, outage, "domain");
    }
  }
}

void Engine::apply_fault_rejoins() {
  auto due = crash_rejoins_.begin();
  for (auto it = crash_rejoins_.begin(); it != crash_rejoins_.end(); ++it) {
    if (it->first > round_) {
      *due++ = *it;
      continue;
    }
    // A node churn already rejoined stays as it is.
    runtime_.join(it->second, TraceEventType::kRejoin);
  }
  crash_rejoins_.erase(due, crash_rejoins_.end());
}

RoundStats Engine::run_round() {
  TELEM_SCOPE("engine.round");
  started_ = true;
  ++round_;
  telemetry::note_sim_time(static_cast<double>(round_));
  // The synchronous engine's clock is the round number.
  const auto t = static_cast<SimTime>(round_);
  runtime_.advance_to(t);
  apply_churn();
  if (config_.faults != nullptr) apply_fault_rejoins();
  if (config_.adversary != nullptr || config_.faults != nullptr)
    apply_scheduled_crashes();

  const Overlay& overlay = runtime_.overlay();
  // With stale chain knowledge, snapshot each node's violation state
  // BEFORE this round's maintenance so decisions can be based on what a
  // node believed `knowledge_lag` rounds ago.
  if (config_.knowledge_lag > 0) {
    std::vector<char> snapshot(overlay.node_count(), 0);
    for (NodeId id = 1; id < overlay.node_count(); ++id) {
      if (!overlay.online(id) || !overlay.has_parent(id)) continue;
      snapshot[id] = overlay.delay_at(id) > overlay.latency_of(id) ? 1 : 0;
    }
    violation_snapshots_.push_front(std::move(snapshot));
    while (violation_snapshots_.size() >
           static_cast<std::size_t>(config_.knowledge_lag))
      violation_snapshots_.pop_back();
  }

  // Maintenance pass: every node polls its parent. With instantaneous
  // knowledge it is evaluated on live state: an upstream detach earlier
  // in the pass already changed downstream Root()/DelayAt() values.
  const bool lagged =
      config_.knowledge_lag > 0 &&
      violation_snapshots_.size() ==
          static_cast<std::size_t>(config_.knowledge_lag);
  for (NodeId id = 1; id < overlay.node_count(); ++id) {
    // Crash fault for attached nodes (orphans roll in the interaction
    // pass below): the node dies, its subtree is orphaned.
    if (config_.faults != nullptr && overlay.online(id) &&
        overlay.has_parent(id) && config_.faults->crash_roll(id, t)) {
      crash_node(id, config_.faults->crash_downtime(t), "");
      continue;
    }
    std::optional<bool> observed;
    if (config_.knowledge_lag > 0)
      observed = lagged && violation_snapshots_.back()[id] != 0;
    runtime_.poll_parent(id, observed);
  }

  // Interaction pass: every parentless chain root acts once, in random
  // order (nodes are not synchronized; the shuffle models arbitrary
  // arrival order within a round).
  std::vector<NodeId> roots;
  roots.reserve(overlay.node_count());
  for (NodeId id = 1; id < overlay.node_count(); ++id)
    if (overlay.online(id) && !overlay.has_parent(id)) roots.push_back(id);
  rng_.shuffle(roots);
  const bool rationed = !admission_defer_.empty();
  for (NodeId i : roots) {
    // Crash fault: the node dies mid-interaction instead of acting.
    if (config_.faults != nullptr && config_.faults->crash_roll(i, t)) {
      crash_node(i, config_.faults->crash_downtime(t), "");
      continue;
    }
    if (runtime_.try_failover(i)) {
      if (rationed) admission_attempts_[i] = 0;
      continue;
    }
    // Admission backoff: a node the Oracle rejected sits out its
    // retry-after window instead of re-stampeding the service.
    if (rationed && admission_defer_[i] > round_) continue;
    const StepOutcome outcome = runtime_.orphan_step(i, rng_);
    if (!rationed) continue;
    if (outcome.rejected) {
      // Exponential retry spread (mirrors the async engine's backoff
      // machinery at round granularity): the k-th consecutive
      // rejection defers the node retry_after * 2^(k-1) rounds.
      const int attempts = std::min(++admission_attempts_[i], 6);
      const double wait = config_.admission.retry_after *
                          static_cast<double>(1 << (attempts - 1));
      admission_defer_[i] =
          round_ + std::max<Round>(1, static_cast<Round>(std::llround(wait)));
      TELEM_COUNT("engine.admission_deferrals", 1);
    } else if (outcome.partner != kNoNode) {
      admission_attempts_[i] = 0;
    }
  }

  RoundStats stats;
  stats.round = round_;
  stats.online = overlay.online_count();
  stats.satisfied = overlay.satisfied_count();
  stats.satisfied_fraction = overlay.satisfied_fraction();
  stats.orphan_roots = overlay.orphan_count();
  TELEM_COUNT("engine.rounds", 1);
  TELEM_GAUGE("engine.online", static_cast<double>(stats.online));
  TELEM_GAUGE("engine.orphan_roots", static_cast<double>(stats.orphan_roots));
  TELEM_GAUGE("engine.satisfied_fraction", stats.satisfied_fraction);
  if (record_history_) history_.push_back(stats);
  runtime_.sample_health(t);
#ifdef LAGOVER_AUDIT
  runtime_.audit(round_);
#endif
  return stats;
}

std::optional<Round> Engine::run_until_converged(Round max_rounds) {
  const telemetry::PerfPhase perf_phase("construction");
  if (overlay().all_satisfied()) return round_;
  for (Round r = 0; r < max_rounds; ++r) {
    run_round();
    if (overlay().all_satisfied()) return round_;
  }
  return std::nullopt;
}

}  // namespace lagover
