// Round-based LagOver construction engine (paper Section 2.1.1's
// "decoupled time": construction proceeds in rounds, independent of the
// latency unit). Each round:
//
//   1. churn is applied (paper Section 5.3 model, pluggable),
//   2. connected nodes run maintenance (Algorithm 1 / hybrid timeout),
//   3. every parentless chain root performs one step of its construction
//      loop: direct source contact when its timeout has fired or it was
//      referred to the source, otherwise one interaction with a partner
//      from its last referral or the Oracle.
//
// The engine is deterministic given (population, config seed).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "core/node_runtime.hpp"
#include "core/oracle.hpp"
#include "core/overlay.hpp"
#include "core/types.hpp"
#include "core/validator.hpp"
#include "health/lease.hpp"

namespace lagover {

/// Tunable parameters of a construction run. The shared fields
/// (RuntimeConfig) are clocked by the round number.
struct EngineConfig : RuntimeConfig {
  /// Rounds an orphan waits (without acquiring a parent) before
  /// contacting the source directly.
  int timeout_rounds = 4;
  /// Allow the orphaning-displacement move (Protocol docs); disabling it
  /// approximates the paper's literally-described move set for ablation.
  bool orphaning_displacement = true;
  /// Stale chain knowledge (paper Section 2.1.3 ablation): maintenance
  /// decisions use each node's DelayAt/Root as observed this many
  /// rounds ago — piggy-backed information takes time to ride down the
  /// chain. 0 = instantaneous (the paper's simulator and our default).
  int knowledge_lag = 0;
};

/// Per-round snapshot used by convergence tracking.
struct RoundStats {
  Round round = 0;
  std::size_t online = 0;
  std::size_t satisfied = 0;
  std::size_t orphan_roots = 0;
  double satisfied_fraction = 1.0;
};

/// Membership-dynamics model: returns which nodes leave and which
/// (offline) nodes rejoin this round.
class ChurnModel {
 public:
  virtual ~ChurnModel() = default;
  struct Decision {
    std::vector<NodeId> leave;
    std::vector<NodeId> join;
  };
  virtual Decision decide(Round round, const Overlay& overlay, Rng& rng) = 0;
};

/// Drives one LagOver construction run: the shuffled round loop over a
/// NodeRuntime.
class LAGOVER_THREAD_HOSTILE Engine {
 public:
  Engine(Population population, EngineConfig config);

  // The runtime borrows config_, so the engine is pinned in place
  // (heap-allocate it to hand it around).
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  Engine(Engine&&) = delete;
  Engine& operator=(Engine&&) = delete;

  /// Replaces the Oracle (e.g. with a DHT- or gossip-backed
  /// realization). Must be called before the first round.
  void set_oracle(std::unique_ptr<Oracle> oracle);

  /// Installs a churn model; nullptr disables churn.
  void set_churn(std::unique_ptr<ChurnModel> churn);

  /// Installs a trace observer (nullptr to disable): a named
  /// subscription on trace_bus() that a later call replaces (see
  /// NodeRuntime::swap_trace). Returns the new subscription id.
  TraceBus::SubscriptionId set_trace(
      std::function<void(const TraceEvent&)> trace) {
    return runtime_.swap_trace(std::move(trace));
  }
  TraceBus& trace_bus() noexcept { return runtime_.trace_bus(); }
  AuditBus& audit_bus() noexcept { return runtime_.audit_bus(); }
  std::uint64_t audit_violations() const noexcept {
    return runtime_.audit_violations();
  }

  /// When enabled, every round's RoundStats is retained in history().
  void set_record_history(bool record) { record_history_ = record; }

  const Overlay& overlay() const noexcept { return runtime_.overlay(); }
  Overlay& overlay() noexcept { return runtime_.overlay(); }
  const Oracle& oracle() const noexcept { return runtime_.oracle(); }
  const health::EpochBook& epochs() const noexcept {
    return runtime_.epochs();
  }
  /// Per-node state, resilience layers and counters.
  const NodeRuntime& runtime() const noexcept { return runtime_; }
  Round round() const noexcept { return round_; }
  const std::vector<RoundStats>& history() const noexcept { return history_; }
  const EngineConfig& config() const noexcept { return config_; }

  /// The feed layer's degradation ladder: see
  /// NodeRuntime::escalate_starvation.
  void escalate_starvation(NodeId child) {
    runtime_.escalate_starvation(child);
  }

  /// Executes one construction round and returns its statistics.
  RoundStats run_round();

  /// Runs rounds until every online consumer is satisfied or max_rounds
  /// is exhausted. Returns the converged round, or nullopt on timeout
  /// ("did not converge" in the paper's evaluation).
  std::optional<Round> run_until_converged(Round max_rounds);

 private:
  void apply_churn();
  void apply_fault_rejoins();
  /// Deterministic down-states: flapper duty cycles and correlated
  /// domain-outage windows, checked once per round before the
  /// probabilistic crash rolls.
  void apply_scheduled_crashes();
  /// Crashes node i this round: offline + scheduled rejoin after
  /// `downtime` rounds (floored at 1). `cause` tags the kCrash event
  /// ("" = plain fault-plan crash, "flap" = adversarial flapper,
  /// "domain" = correlated domain outage).
  void crash_node(NodeId id, double downtime, const char* cause);
  /// Forgets a departed node's admission backoff.
  void clear_admission_backoff(NodeId id);

  EngineConfig config_;
  NodeRuntime runtime_;
  std::unique_ptr<ChurnModel> churn_;
  Rng rng_;

  Round round_ = 0;
  bool started_ = false;
  bool record_history_ = false;
  std::vector<RoundStats> history_;
  /// Ring buffer of per-node violation observations for knowledge_lag
  /// (entry k: the snapshot taken k rounds ago, newest first).
  std::deque<std::vector<char>> violation_snapshots_;
  /// Crashed nodes' scheduled rejoin rounds.
  std::vector<std::pair<Round, NodeId>> crash_rejoins_;
  /// Per-node retry-after deadline (round before which a rejected node
  /// sits out) and consecutive-rejection count driving the exponential
  /// retry spread. Sized only when admission control is configured.
  std::vector<Round> admission_defer_;
  std::vector<int> admission_attempts_;
};

}  // namespace lagover
