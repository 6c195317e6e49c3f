// The per-node runtime both construction schedulers drive: the round
// -based Engine and the event-driven AsyncEngine run the same per-peer
// protocol (paper Section 5.3) under different schedules, so everything
// a node does — its orphan step, its parent poll, leaving, joining,
// crashing — lives here once, together with the per-node state those
// steps read: timeout counters, violation streaks, referrals and the
// partner cache, plus the resilience shell (epochs, failure detection,
// failover hints, suspicion scores, promised delays) and the one Oracle
// query path. The schedulers decide only *when* each step runs.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "core/admission.hpp"
#include "core/oracle.hpp"
#include "core/overlay.hpp"
#include "core/protocol.hpp"
#include "core/types.hpp"
#include "core/validator.hpp"
#include "fault/byzantine.hpp"
#include "fault/fault_injector.hpp"
#include "health/health.hpp"
#include "health/lease.hpp"
#include "health/suspicion.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace lagover {

/// The run's event record and its kinds live in telemetry (below core),
/// so the exporters and the flight recorder take them off the process
/// bus as they are.
using telemetry::TraceEvent;
using telemetry::TraceEventType;

/// The runtime's multi-subscriber event stream: recorders, validators,
/// and exporters all listen on the same bus without engine changes.
using TraceBus = telemetry::EventBus<TraceEvent>;

/// Result of one orphan step, for callers that model interaction costs
/// and retry policies.
struct StepOutcome {
  /// Peer the node tried to reach (kSourceId for a source contact,
  /// kNoNode when the Oracle starved the node).
  NodeId partner = kNoNode;
  /// False when the fault layer lost the request (or the partner turned
  /// out to be dead) — the step made no protocol progress and the
  /// caller should apply its retry/backoff policy.
  bool delivered = true;
  /// Did i end the step with a parent?
  bool attached = false;
  /// The Oracle starved i because the admission layer rejected the
  /// query (retry-after advised), not for want of a candidate.
  bool rejected = false;

  /// Convenience: partner for the legacy NodeId-returning contract.
  operator NodeId() const noexcept { return partner; }
};

/// What one parent poll did to the polling node.
enum class PollVerdict {
  kStayed,     ///< i kept its parent (or had none to poll)
  kMissed,     ///< the poll was lost; the parent is not yet suspected
  kSuspected,  ///< epoch fence, dead-parent suspicion or quarantine
               ///< re-orphaned i
  kDetached,   ///< maintenance discarded a parent that violates l_i
};

/// Configuration shared by both schedulers (EngineConfig and AsyncConfig
/// extend it). Validated once, by NodeRuntime.
struct RuntimeConfig {
  AlgorithmKind algorithm = AlgorithmKind::kHybrid;
  OracleKind oracle = OracleKind::kRandomDelay;
  SourceMode source_mode = SourceMode::kPullOnly;
  /// Hybrid maintenance damping: consecutive violated evaluations
  /// tolerated before discarding the parent (greedy always reacts
  /// immediately).
  int maintenance_patience = 1;
  /// Optional chaos layer. Null (or an empty FaultPlan) leaves the run
  /// byte-identical to the fault-free one for the same seed: no extra
  /// scheduler-RNG draw happens and every fault hook stays inert.
  std::shared_ptr<fault::FaultInjector> faults;
  /// Consecutive undeliverable parent polls (partition / message loss)
  /// an attached node tolerates before declaring its parent dead and
  /// re-orphaning itself. (The fixed fallback when health.detection
  /// selects phi-accrual.)
  int parent_poll_miss_limit = 3;
  /// Health layer: failure detection + failover policy. The defaults
  /// (fixed misses, Oracle rejoin) reproduce the legacy behavior
  /// byte-for-byte; epoch bookkeeping is always on but inert without
  /// faults.
  health::HealthConfig health;
  /// Byzantine adversary layer (liars, free-riders, flappers). Null or
  /// an empty book is normalized away: no hook installs, no RNG-stream
  /// change, runs stay byte-identical to an adversary-free one.
  std::shared_ptr<fault::AdversaryBook> adversary;
  /// Defense ladder (suspicion scoring, quarantine, Oracle plausibility
  /// filter). Only engaged when both defense.enabled and an adversary
  /// layer are present — defenses-off adversarial runs show the
  /// undefended collapse.
  health::DefenseConfig defense;
  /// Oracle admission control (rate limiting + circuit breaker). An
  /// empty config (no rate limit) builds no controller: no RNG-stream
  /// change, runs stay byte-identical.
  AdmissionConfig admission;
  std::uint64_t seed = 1;
};

/// Convenience: builds the protocol for an algorithm kind.
std::unique_ptr<Protocol> make_protocol(AlgorithmKind kind,
                                        SourceMode source_mode,
                                        int maintenance_patience);

/// Owns one population's overlay, protocol, Oracle and per-node state,
/// and executes single node steps on it. The owning scheduler
/// reports the current time through advance_to() before driving steps;
/// every time-dependent decision (fault windows, admission budgets,
/// failure detection, event stamps) reads that time.
class LAGOVER_THREAD_HOSTILE NodeRuntime {
 public:
  /// Borrows `config`, which must outlive the runtime, after
  /// normalizing it in place (an adversary book with no adversarial
  /// node is dropped) and validating the shared fields. `timeout_limit`
  /// is the orphan steps before a direct source contact.
  NodeRuntime(Population population, RuntimeConfig& config,
              int timeout_limit);
  /// Closes the health-observatory run, when one was registered.
  ~NodeRuntime();

  // The overlay's outlet and the Byzantine Oracle's hooks hold pointers
  // into this object, so it is pinned in place.
  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;
  NodeRuntime(NodeRuntime&&) = delete;
  NodeRuntime& operator=(NodeRuntime&&) = delete;

  /// Sets the current time: the round number in the synchronous engine,
  /// simulation time in the asynchronous one.
  void advance_to(SimTime now) noexcept { now_ = now; }

  /// Replaces the Oracle (e.g. a DHT- or gossip-backed realization); the
  /// outage, staleness and admission decisions apply to it unchanged.
  /// Not allowed with an adversary layer, whose claim filter is the
  /// Oracle.
  void set_oracle(std::unique_ptr<Oracle> oracle);

  // --- node steps -------------------------------------------------------

  /// One step of the `while i is parentless` loop (Algorithm 2 body):
  /// source contact when the timeout fired or a source referral is
  /// pending; otherwise one interaction with the last referral or an
  /// Oracle sample. No-op if i is offline or already has a parent.
  StepOutcome orphan_step(NodeId i, Rng& rng);

  /// The failover ladder's turn (health layer): a node orphaned by a
  /// suspicion event gets one shot at re-attaching WITHOUT a round trip
  /// to the Oracle — first under its grandparent hint (piggy-backed on
  /// earlier poll replies), then under each cached recent partner. A
  /// candidate is taken only when it is online, unbarred, structurally
  /// attachable, keeps i's delay bound (DelayAt(c) + 1 <= l_i), is
  /// reachable, and has not re-incarnated since i learned of it.
  /// Deterministic (no RNG). Disarms the ladder; true = re-attached
  /// (emits kFailoverAttach), false = take the Oracle path.
  bool try_failover(NodeId i);

  /// Node i's maintenance wake-up, which doubles as a poll of its
  /// parent: epoch fence, then delivery (fixed-miss or phi-accrual
  /// suspicion), then the defense ladder's delay verification, receipt
  /// audit and quarantine, then the maintenance evaluation. The latter
  /// tracks i's consecutive-violation streak and detaches i once it
  /// exceeds the protocol's patience; it also runs (resetting the
  /// streak) for offline and parentless nodes. `observed_violated`
  /// overrides the live violation check — stale piggy-backed chain
  /// knowledge (paper Section 2.1.3); under an adversary the check runs
  /// on the parent's *claimed* delay instead.
  PollVerdict poll_parent(
      NodeId i, std::optional<bool> observed_violated = std::nullopt);

  /// Churn departure: takes `id` offline (orphaning its children) and
  /// clears its session state. Emits nothing; the scheduler announces
  /// kChurnLeave in its own order relative to the departure.
  void leave(NodeId id);

  /// Brings an offline `id` back as a new incarnation (kChurnJoin for
  /// churn, kRejoin after a crash): state naming its previous life is
  /// now fenced. False, and nothing happens, when `id` is online.
  bool join(NodeId id, TraceEventType type = TraceEventType::kChurnJoin);

  /// Crash fault: emits kCrash while the children are still visible,
  /// charges the crashing parent with instability evidence, arms the
  /// failover ladder of the children it strands, then leave()s. The
  /// scheduler decides when the node rejoins.
  void crash(NodeId id, const char* cause);

  /// Escalation entry point for the feed layer's degradation ladder: a
  /// persistently starved child abandons its overloaded parent (mild
  /// suspicion evidence when defenses run) and re-enters construction,
  /// spreading load across the tree. False (no-op) when the child is
  /// unknown, offline or already parentless.
  bool escalate_starvation(NodeId child);

  /// The one publisher of the run's events, the overlay's structural
  /// changes included: stamps the current time and, on protocol kinds
  /// when epochs are fenced, the subject's incarnation, then publishes
  /// the event on the trace bus and, while telemetry is on, counts it
  /// ("trace.<type>", protocol kinds only) and mirrors it onto the
  /// process-global event bus.
  void emit(TraceEventType type, NodeId subject, NodeId partner = kNoNode,
            bool attached = false, const char* cause = "");

  // --- observation --------------------------------------------------------

  /// The run's event stream, in emission order. Subscriptions live as
  /// long as the runtime, across set_oracle().
  TraceBus& trace_bus() noexcept { return trace_bus_; }

  /// Paper-invariant audit sink. LAGOVER_AUDIT builds publish one event
  /// per violation per audit; the bus exists in every build so
  /// subscribers need no conditional compilation.
  AuditBus& audit_bus() noexcept { return audit_bus_; }
  /// Total invariant violations seen by audit() (always 0 in builds
  /// without LAGOVER_AUDIT).
  std::uint64_t audit_violations() const noexcept {
    return audit_violations_;
  }
  /// Audits the paper invariants, the overlay's index among them, and
  /// publishes violations labelled `label`. Read-only: draws no RNG,
  /// mutates no state.
  void audit(Round label);

  /// True when a health recorder was active at construction, i.e. the
  /// scheduler should call sample_health() once per round / time unit.
  bool health_observed() const noexcept { return health_run_ != 0; }
  /// Reads one HealthSample at time `t` off the overlay (churn fields
  /// count the changes since the previous call) and hands it to the
  /// health observatory.
  void sample_health(SimTime t);

  // --- state --------------------------------------------------------------

  const Overlay& overlay() const noexcept { return overlay_; }
  Overlay& overlay() noexcept { return overlay_; }
  const Protocol& protocol() const noexcept { return *protocol_; }
  Protocol& protocol() noexcept { return *protocol_; }
  /// The Oracle the query step samples. Its stats() count each query
  /// that reaches it once; outage, rejected and stale-served queries
  /// never do (see fault::FaultStats, admission() and stale_served()).
  const Oracle& oracle() const noexcept { return *oracle_; }

  /// Health-layer state, for validators and metrics.
  const health::EpochBook& epochs() const noexcept { return epochs_; }
  /// Defense-ladder state (empty book when defenses are off).
  const health::SuspicionBook& suspicion() const noexcept {
    return suspicion_;
  }
  /// The claim-filtered Oracle, when an adversary layer is installed
  /// (null otherwise); exposes barred/implausible skip counters.
  const fault::ByzantineOracle* byzantine_oracle() const noexcept {
    return byzantine_oracle_;
  }
  /// Oracle admission controller, when admission control is configured
  /// (null otherwise); exposes rate/breaker counters.
  const AdmissionController* admission() const noexcept {
    return admission_.get();
  }
  /// Over-budget queries answered from the stale cache (0 without
  /// admission control).
  std::uint64_t stale_served() const noexcept { return stale_served_; }

  std::uint64_t maintenance_detaches() const noexcept {
    return maintenance_detaches_;
  }
  std::uint64_t failover_attaches() const noexcept {
    return failover_attaches_;
  }
  /// Children that abandoned a quarantined/blacklisted parent.
  std::uint64_t quarantine_detaches() const noexcept {
    return quarantine_detaches_;
  }
  /// Children escalate_starvation() detached from a starving parent.
  std::uint64_t starvation_detaches() const noexcept {
    return starvation_detaches_;
  }

  /// Partners node i interacted with most recently (most recent first),
  /// the fallback pool during Oracle outages and the failover ladder.
  /// By value: the cache is stored epoch-stamped internally.
  std::vector<NodeId> recent_partners(NodeId i) const;

 private:
  /// A cached peer plus the incarnation it was learned under (kNoEpoch
  /// when epochs are not fenced).
  struct CachedPartner {
    NodeId node = kNoNode;
    health::Epoch epoch = health::kNoEpoch;
  };

  bool defense_active() const noexcept {
    return config_.adversary != nullptr && config_.defense.enabled;
  }
  bool ladder() const noexcept {
    return config_.health.failover == health::FailoverPolicy::kLadder;
  }
  /// One Oracle query's result.
  struct OracleAnswer {
    NodeId partner = kNoNode;  ///< kNoNode = no answer
    bool rejected = false;     ///< the admission layer turned it away
    /// The Oracle is dark: a fault-plan outage or an open breaker
    /// (stale but local beats hammering a service that is already
    /// shedding load). Only then does an empty answer fall back to the
    /// partner cache, so fault-free runs keep the paper's exact
    /// starvation semantics.
    bool down = false;
  };
  /// The one Oracle query path, each decision made once and in this
  /// order: a fault-plan outage answers nothing; a staleness window
  /// answers against a kept copy of the overlay, refreshed once it is
  /// older than the window's bound; the admission verdict then picks one
  /// answer: a sample of oracle_ (remembered for stale serving), the
  /// freshest remembered answer still eligible for i against that view
  /// and not barred (no RNG drawn), or a rejection.
  OracleAnswer query_oracle(NodeId i, Rng& rng);
  /// Puts `partner` at the front of the stale cache.
  void remember_answer(NodeId partner);

  /// Transport check: does a request from `from` reach `to` now?
  bool reaches(NodeId from, NodeId to);
  /// False when the defense ladder barred `candidate` (quarantine or
  /// blacklist): it must not serve as referral, stale answer, fallback
  /// or failover.
  bool usable(NodeId candidate) const;
  /// First-hand suspicion evidence (weight 1) when defenses run.
  void report(NodeId suspect, const char* cause);
  /// `node`'s current incarnation when epochs are fenced, else kNoEpoch.
  health::Epoch stamp(NodeId node) const;
  /// True iff the epoch fence rejects `stamped` as naming a previous
  /// incarnation of `node`. Counts the rejection on the protocol.
  bool fenced(NodeId node, health::Epoch stamped);
  void remember_partner(NodeId i, NodeId partner);
  /// One undeliverable poll from id to its parent: updates the active
  /// detection policy's state and reports whether the parent is now
  /// suspected dead.
  bool suspect_parent(NodeId id);
  /// Re-orphans `id` from `parent` after a suspicion, fence or
  /// starvation and arms the failover ladder. `evidence` (null = none)
  /// charges the parent with mild suspicion when defenses run.
  void detach_suspected(NodeId id, NodeId parent, TraceEventType type,
                        const char* cause, const char* evidence);
  /// Maintenance evaluation; true when it detached i.
  bool maintenance_step(NodeId i, std::optional<bool> observed_violated);
  /// Clears i's session state (used when a node leaves or rejoins).
  void reset_node(NodeId id);
  /// The overlay's outlet: keeps the lease book (pure record-keeping,
  /// no RNG) and emits the structural event.
  void on_overlay_change(OverlayChange change, NodeId subject,
                         NodeId parent);

  /// How many recently seen partners each node remembers as its Oracle
  /// -outage fallback.
  static constexpr std::size_t kPartnerCacheSize = 4;
  /// How many recent Oracle answers admission control keeps for stale
  /// serving.
  static constexpr std::size_t kStaleCacheSize = 8;

  const RuntimeConfig& config_;
  const int timeout_limit_;
  /// Epochs stamp construction state only once a fault or adversary
  /// layer can re-incarnate nodes out from under it (crashes, flappers,
  /// domain outages); churn-only runs stay byte-stable.
  const bool fence_epochs_;
  SimTime now_ = 0.0;
  Overlay overlay_;
  std::unique_ptr<Protocol> protocol_;
  std::unique_ptr<Oracle> oracle_;
  /// Borrowed view of oracle_ when it is the Byzantine claim filter
  /// (null without an adversary layer).
  fault::ByzantineOracle* byzantine_oracle_ = nullptr;
  /// The overlay as a staleness window's queries see it (null outside
  /// one), copied at snapshot_time_.
  std::unique_ptr<Overlay> stale_view_;
  SimTime snapshot_time_ = 0.0;
  /// Null without admission control.
  std::unique_ptr<AdmissionController> admission_;

  TraceBus trace_bus_;
  AuditBus audit_bus_;
  std::uint64_t audit_violations_ = 0;
  /// Health-observatory run id (0 = no recorder active at construction).
  std::uint64_t health_run_ = 0;
  /// The overlay's counters at the previous health sample.
  OverlayCounters health_counters_;

  std::uint64_t maintenance_detaches_ = 0;
  std::uint64_t failover_attaches_ = 0;
  std::uint64_t quarantine_detaches_ = 0;
  std::uint64_t starvation_detaches_ = 0;

  // Per-node state (index = node id; [0] unused).
  std::vector<int> timeout_counter_;
  std::vector<int> violation_streak_;
  std::vector<NodeId> referral_;            // kNoNode = none
  std::vector<health::Epoch> referral_epoch_;
  std::vector<char> pending_source_;        // "refer i to 0"
  std::vector<std::vector<CachedPartner>> recent_partners_;
  /// Consecutive undeliverable polls to the current parent.
  std::vector<int> parent_poll_misses_;
  health::EpochBook epochs_;
  health::PhiAccrualDetector detector_;
  /// Last known parent-of-parent, learned on successful polls: the
  /// first rung of the failover ladder.
  std::vector<NodeId> grandparent_hint_;
  /// Armed by a suspicion event (kParentLost / kEpochFenced / parent
  /// crash): the node's next orphan turn tries the failover ladder
  /// before the Oracle. Never set on the fault-free path.
  std::vector<char> failover_pending_;
  /// Defense-ladder scores and trust states (inert unless
  /// defense_active()).
  health::SuspicionBook suspicion_;
  /// Delay each attached node was promised at attach time (parent's
  /// claimed delay + 1); -1 = no active promise. Maintained only while
  /// the defense ladder runs delay verification.
  std::vector<Delay> promised_delay_;
  /// Recent Oracle answers, most recent first, for stale serving.
  std::vector<NodeId> stale_cache_;
  std::uint64_t stale_served_ = 0;
};

}  // namespace lagover
