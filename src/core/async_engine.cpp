#include "core/async_engine.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/perf.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"

namespace lagover {

AsyncEngine::AsyncEngine(Population population, AsyncConfig config)
    : config_(std::move(config)),
      runtime_(std::move(population), config_, config_.timeout_steps),
      rng_(config_.seed) {
  LAGOVER_EXPECTS(config_.min_interaction_time > 0.0);
  LAGOVER_EXPECTS(config_.max_interaction_time >=
                  config_.min_interaction_time);
  LAGOVER_EXPECTS(config_.maintenance_period > 0.0);
  LAGOVER_EXPECTS(config_.backoff_base > 0.0);
  LAGOVER_EXPECTS(config_.backoff_max >= config_.backoff_base);
  LAGOVER_EXPECTS(config_.backoff_jitter >= 0.0 &&
                  config_.backoff_jitter < 1.0);
  // Sized unconditionally (pure memory, no RNG).
  failed_attempts_.assign(runtime_.overlay().node_count(), 0);
#ifdef LAGOVER_AUDIT
  // Audit the overlay once per simulated time unit (the same cadence as
  // the synchronous engine's rounds). Read-only: it draws no RNG and
  // mutates nothing, so the construction trajectory is unchanged.
  sim_.schedule_periodic(
      1.0, [this] { runtime_.audit(static_cast<Round>(sim_.now())); });
#endif
  // Sample the health observatory at the audit tick's cadence. The
  // event only exists when a recorder is active, keeping default runs
  // byte-identical.
  if (runtime_.health_observed())
    sim_.schedule_periodic(
        1.0, [this] { runtime_.sample_health(sim_.now()); });
  // Stagger the first wake-ups so nodes are desynchronized from t = 0.
  for (NodeId id = 1; id < runtime_.overlay().node_count(); ++id)
    schedule_node(id, draw_duration());
}

void AsyncEngine::set_oracle(std::unique_ptr<Oracle> oracle) {
  LAGOVER_EXPECTS(!started_);
  runtime_.set_oracle(std::move(oracle));
}

void AsyncEngine::set_churn(std::unique_ptr<ChurnModel> churn) {
  LAGOVER_EXPECTS(!started_);
  churn_ = std::move(churn);
  sim_.schedule_periodic(1.0, [this] { apply_churn(); });
}

void AsyncEngine::park_offline(NodeId id) {
  LAGOVER_EXPECTS(!started_);
  LAGOVER_EXPECTS(id >= 1 && static_cast<std::size_t>(id) <
                                 runtime_.overlay().node_count());
  if (!runtime_.overlay().online(id)) return;
  runtime_.leave(id);
}

void AsyncEngine::set_sampler(double period,
                              std::function<void(SimTime)> sampler) {
  LAGOVER_EXPECTS(!started_);
  LAGOVER_EXPECTS(period > 0.0);
  LAGOVER_EXPECTS(sampler != nullptr);
  sim_.schedule_periodic(
      period, [this, sampler = std::move(sampler)] { sampler(sim_.now()); });
}

void AsyncEngine::apply_churn() {
  if (!churn_) return;
  runtime_.advance_to(sim_.now());
  const Overlay& overlay = runtime_.overlay();
  const ChurnModel::Decision decision =
      churn_->decide(++churn_ticks_, overlay, rng_);
  for (NodeId id : decision.leave) {
    if (!overlay.online(id)) continue;
    // Announced while the node is still there (the synchronous engine
    // announces after; recorded event streams pin both orders).
    runtime_.emit(TraceEventType::kChurnLeave, id);
    runtime_.leave(id);
  }
  // Rejoined nodes resume their action loop (their previous wake-up
  // chain died at the offline check).
  for (NodeId id : decision.join)
    if (runtime_.join(id)) schedule_node(id, draw_duration());
  // Churn can invalidate a previous "converged" observation.
  if (!overlay.all_satisfied()) converged_ = false;
}

double AsyncEngine::run_for(SimTime duration) {
  const telemetry::PerfPhase perf_phase("construction");
  started_ = true;
  const SimTime horizon = sim_.now() + duration;
  while (sim_.step(horizon)) {
  }
  sim_.run_until(horizon);
  return runtime_.overlay().satisfied_fraction();
}

double AsyncEngine::draw_duration() {
  return rng_.uniform_real(config_.min_interaction_time,
                           config_.max_interaction_time);
}

double AsyncEngine::backoff_delay(NodeId id) {
  const int attempts = std::min(failed_attempts_[id], 16);
  const double base = std::min(
      config_.backoff_base * static_cast<double>(1u << attempts),
      config_.backoff_max);
  // Jitter desynchronizes retry storms after a window lifts.
  const double jitter =
      rng_.uniform_real(1.0 - config_.backoff_jitter,
                        1.0 + config_.backoff_jitter);
  return base * jitter;
}

void AsyncEngine::schedule_node(NodeId id, SimTime delay) {
  sim_.schedule_after(delay, [this, id] { on_wake(id); });
}

void AsyncEngine::crash_node(NodeId id, double downtime, const char* cause) {
  // The crash orphans the node's children (the overlay is the shared
  // ground truth, as with churn) and erases its session state; the node
  // rejoins after `downtime` as a new incarnation.
  runtime_.crash(id, cause);
  converged_ = false;
  sim_.schedule_after(std::max(downtime, 0.1), [this, id] {
    runtime_.advance_to(sim_.now());
    // A node churn already rejoined keeps its wake chain.
    if (runtime_.join(id, TraceEventType::kRejoin))
      schedule_node(id, draw_duration());
  });
}

void AsyncEngine::on_wake(NodeId id) {
  TELEM_SCOPE("async.wake");
  telemetry::note_sim_time(sim_.now());
  TELEM_COUNT("async.wakes", 1);
  const Overlay& overlay = runtime_.overlay();
  // Without churn, faults, or adversaries, a converged overlay is final
  // and the wake chains may die out; otherwise they must keep running
  // (convergence is transient).
  if ((converged_ && !churn_ && !config_.faults && !config_.adversary) ||
      !overlay.online(id))
    return;
  const SimTime now = sim_.now();
  runtime_.advance_to(now);
  // Flapper adversaries and correlated domain outages take the node
  // down deterministically (pure functions of id and time — no engine
  // RNG), checked before the probabilistic crash roll.
  if (config_.adversary != nullptr &&
      config_.adversary->flapping_down(id, now)) {
    crash_node(id, config_.adversary->flap_remaining(id, now), "flap");
    return;
  }
  if (config_.faults != nullptr) {
    const double outage = config_.faults->domain_crash_outage(id, now);
    if (outage > 0.0) {
      crash_node(id, outage, "domain");
      return;
    }
  }
  // Crash fault: the node dies mid-action instead of proceeding —
  // attached nodes orphan their subtree, orphans just disappear.
  if (config_.faults != nullptr && config_.faults->crash_roll(id, now)) {
    crash_node(id, config_.faults->crash_downtime(now), "");
    return;
  }
  if (overlay.has_parent(id)) {
    wake_attached(id);
  } else {
    wake_orphan(id);
  }
  if (overlay.all_satisfied()) {
    converged_ = true;
    converged_at_ = now;
  }
}

void AsyncEngine::wake_attached(NodeId id) {
  switch (runtime_.poll_parent(id)) {
    case PollVerdict::kMissed:
      // Missed poll but not yet suspicious: retry a full maintenance
      // period later.
      schedule_node(id, config_.maintenance_period);
      return;
    case PollVerdict::kSuspected:
      converged_ = false;
      schedule_node(id, draw_duration());
      return;
    case PollVerdict::kStayed:
    case PollVerdict::kDetached:
      break;
  }
  // Attached nodes only need periodic maintenance checks; detached
  // ones resume the construction loop at their own pace either way.
  const bool attached = runtime_.overlay().has_parent(id);
  schedule_node(id, attached ? config_.maintenance_period : draw_duration());
}

void AsyncEngine::wake_orphan(NodeId id) {
  if (runtime_.try_failover(id)) {
    failed_attempts_[id] = 0;
    schedule_node(id, config_.maintenance_period);
    return;
  }
  const StepOutcome outcome = runtime_.orphan_step(id, rng_);
  // Admission rejection: the Oracle told this node to come back later.
  // Honor retry-after through the same exponential backoff machinery
  // fault setbacks use (floored at the advised wait), so a flash crowd
  // of rejected orphans spreads out instead of re-stampeding in sync.
  if (outcome.rejected) {
    ++failed_attempts_[id];
    TELEM_COUNT("engine.admission_deferrals", 1);
    schedule_node(id,
                  std::max(config_.admission.retry_after, backoff_delay(id)));
    return;
  }
  const bool fault_setback =
      config_.faults != nullptr &&
      (!outcome.delivered ||
       (outcome.partner == kNoNode && config_.faults->active(sim_.now())));
  if (fault_setback) {
    ++failed_attempts_[id];
    schedule_node(id, backoff_delay(id));
    return;
  }
  failed_attempts_[id] = 0;
  double duration = draw_duration();
  if (config_.network_latency != nullptr && outcome.partner != kNoNode) {
    // The negotiation round-trips with the partner: far peers cost
    // more wall-clock before the next action can start.
    duration += config_.rtt_weight * 2.0 *
                config_.network_latency->latency(id, outcome.partner, rng_);
  }
  schedule_node(id, duration);
}

std::optional<SimTime> AsyncEngine::run_until_converged(SimTime horizon) {
  const telemetry::PerfPhase perf_phase("construction");
  started_ = true;
  if (runtime_.overlay().all_satisfied()) return sim_.now();
  while (!converged_ && sim_.step(horizon)) {
  }
  if (converged_) return converged_at_;
  return std::nullopt;
}

}  // namespace lagover
