// Event-driven (asynchronous) LagOver construction (paper Section 5.3:
// "peers interacted asynchronously, i.e. different peers need different
// amount of time to complete the interactions. Asynchrony slowed down
// the overlay construction, but interestingly did not affect the
// eventual convergence").
//
// Each consumer runs its own action loop on the discrete-event kernel:
// while parentless it performs one construction step and then sleeps for
// an interaction duration drawn uniformly from
// [min_interaction_time, max_interaction_time]; while attached it wakes
// every maintenance_period to evaluate the maintenance condition.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "core/engine.hpp"
#include "core/node_runtime.hpp"
#include "core/types.hpp"
#include "core/validator.hpp"
#include "fault/fault_injector.hpp"
#include "health/lease.hpp"
#include "net/latency_model.hpp"
#include "sim/simulator.hpp"

namespace lagover {

/// Parameters of an asynchronous run. The shared fields (RuntimeConfig)
/// are clocked by simulation time.
struct AsyncConfig : RuntimeConfig {
  int timeout_steps = 4;       ///< orphan actions before source contact
  /// Interaction duration bounds; the synchronous engine corresponds to
  /// every duration being exactly 1.0 (one round).
  double min_interaction_time = 0.5;
  double max_interaction_time = 2.5;
  double maintenance_period = 1.0;
  /// Optional network model: when set, an interaction with partner j
  /// additionally costs rtt_weight * 2 * latency(i, j) — geographically
  /// far partners take longer to negotiate with (the model must cover
  /// addresses [0, consumers]; address = NodeId, 0 = the source).
  std::shared_ptr<net::LatencyModel> network_latency;
  double rtt_weight = 1.0;
  /// Exponential backoff with jitter for failed interactions / source
  /// contacts (dropped request, partitioned peer, dead stale-Oracle
  /// partner, or a starved Oracle during an outage): the k-th
  /// consecutive failure reschedules the node after
  ///   min(backoff_base * 2^k, backoff_max) * (1 ± backoff_jitter).
  double backoff_base = 0.5;
  double backoff_max = 8.0;
  double backoff_jitter = 0.25;
};

/// Runs construction on the event kernel and reports the simulated time
/// at which every online consumer became satisfied.
class LAGOVER_THREAD_HOSTILE AsyncEngine {
 public:
  AsyncEngine(Population population, AsyncConfig config);

  // The runtime borrows config_ and scheduled events reference this
  // object, so it is pinned in place.
  AsyncEngine(const AsyncEngine&) = delete;
  AsyncEngine& operator=(const AsyncEngine&) = delete;
  AsyncEngine(AsyncEngine&&) = delete;
  AsyncEngine& operator=(AsyncEngine&&) = delete;

  const Overlay& overlay() const noexcept { return runtime_.overlay(); }
  const Oracle& oracle() const noexcept { return runtime_.oracle(); }
  const Simulator& simulator() const noexcept { return sim_; }
  const health::EpochBook& epochs() const noexcept {
    return runtime_.epochs();
  }
  /// Per-node state, resilience layers and counters.
  const NodeRuntime& runtime() const noexcept { return runtime_; }
  const fault::FaultInjector* faults() const noexcept {
    return config_.faults.get();
  }

  /// Replaces the Oracle (e.g. a locality-biased or DHT-backed
  /// realization). Must be called before the first run.
  void set_oracle(std::unique_ptr<Oracle> oracle);

  /// Installs a churn model, applied once per time unit (the same
  /// cadence as the synchronous engine's rounds). Must be called before
  /// the first run. Newly joined nodes re-enter the construction loop
  /// at their own pace.
  void set_churn(std::unique_ptr<ChurnModel> churn);

  /// Parks a consumer offline before the run starts — flash-crowd
  /// experiments hold part of the population back until a
  /// FlashCrowdChurn joins them all at once. Must be called before the
  /// first run (the node's initial wake dies at the offline check, and
  /// the churn join path restarts its action loop).
  void park_offline(NodeId id);

  /// Runs for exactly `duration` time units (under churn there is no
  /// stable "converged" endpoint) and reports the final satisfied
  /// fraction.
  double run_for(SimTime duration);

  /// Runs until convergence or `horizon` simulated time units. Returns
  /// the convergence time, or nullopt on timeout.
  std::optional<SimTime> run_until_converged(SimTime horizon);

  /// Installs a periodic observer (e.g. a metrics::RecoveryRecorder's
  /// sample method) invoked every `period` time units once the run
  /// starts. Must be called before the first run.
  void set_sampler(double period, std::function<void(SimTime)> sampler);

  /// Installs a trace observer (nullptr to disable): a named
  /// subscription on trace_bus() that a later call replaces (see
  /// NodeRuntime::swap_trace). Must be called before the first run.
  TraceBus::SubscriptionId set_trace(
      std::function<void(const TraceEvent&)> trace);
  TraceBus& trace_bus() noexcept { return runtime_.trace_bus(); }
  /// Audits run once per simulated time unit in LAGOVER_AUDIT builds.
  AuditBus& audit_bus() noexcept { return runtime_.audit_bus(); }
  std::uint64_t audit_violations() const noexcept {
    return runtime_.audit_violations();
  }

 private:
  void schedule_node(NodeId id, SimTime delay);
  void on_wake(NodeId id);
  void wake_attached(NodeId id);
  void wake_orphan(NodeId id);
  void apply_churn();
  /// Takes `id` offline for `downtime` (floored at 0.1) and schedules
  /// its rejoin as a new incarnation. `cause` tags the kCrash event
  /// ("" = plain fault-plan crash, "flap" = adversarial flapper,
  /// "domain" = correlated domain outage).
  void crash_node(NodeId id, double downtime, const char* cause);
  double draw_duration();
  double backoff_delay(NodeId id);

  AsyncConfig config_;
  NodeRuntime runtime_;
  std::unique_ptr<ChurnModel> churn_;
  Simulator sim_;
  Rng rng_;
  Round churn_ticks_ = 0;
  bool started_ = false;
  bool converged_ = false;
  SimTime converged_at_ = 0.0;
  /// Consecutive failed attempts per node (drives the backoff).
  std::vector<int> failed_attempts_;
};

}  // namespace lagover
