// Constraint-satisfaction report: a downstream-facing audit of a LagOver
// snapshot that explains *why* each unsatisfied node is unsatisfied.
// Complements Overlay::audit() (which checks structural invariants and
// aborts) with a non-fatal, per-node diagnosis.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/overlay.hpp"
#include "core/types.hpp"
#include "health/lease.hpp"
#include "telemetry/event_bus.hpp"
#include "telemetry/flight_recorder.hpp"

namespace lagover {

enum class NodeIssue {
  kNone,           ///< satisfied
  kOffline,        ///< not currently participating
  kParentless,     ///< chain root still seeking a parent
  kDisconnected,   ///< attached, but the chain root is not the source
  kDelayExceeded,  ///< connected but DelayAt > l
};

std::string to_string(NodeIssue issue);

struct NodeDiagnosis {
  NodeId node = kNoNode;
  NodeIssue issue = NodeIssue::kNone;
  Delay delay = 0;       ///< DelayAt (optimistic when detached)
  Delay constraint = 0;  ///< l
};

struct ValidationReport {
  std::size_t consumers = 0;
  std::size_t satisfied = 0;
  /// Diagnoses of every node that is NOT satisfied (empty = converged).
  std::vector<NodeDiagnosis> issues;

  bool converged() const noexcept { return issues.empty(); }

  /// Human-readable multi-line summary.
  std::string to_string() const;
};

/// Diagnoses every consumer of the overlay.
ValidationReport validate_overlay(const Overlay& overlay);

/// Epoch-consistency audit of an overlay against a lease book (the
/// health layer's fencing invariant): no edge may connect a child to a
/// parent incarnation other than the one it leased, and the forest must
/// be acyclic. A clean audit means no stale-epoch attachment survived.
struct EpochAudit {
  /// Edges whose recorded lease names a previous incarnation of the
  /// parent (lease epoch != parent's current epoch).
  std::vector<NodeId> stale_edges;
  /// Attached children with no recorded lease at all. Benign for
  /// overlays built before the health layer was wired in; should be
  /// empty for engine-built overlays.
  std::vector<NodeId> unleased_edges;
  bool acyclic = true;

  bool ok() const noexcept { return stale_edges.empty() && acyclic; }
  std::string to_string() const;
};

EpochAudit audit_epochs(const Overlay& overlay,
                        const health::EpochBook& epochs);

// --- paper-invariant audit harness (LAGOVER_AUDIT) ---------------------
//
// The full machine-checkable invariant set of the paper, evaluated
// against an overlay snapshot and (optionally) the health layer's epoch
// book. Unlike Overlay::audit() this never aborts: every violation is
// reported as a structured event so the engines can stream them through
// the telemetry EventBus and CI can assert the stream stayed empty.

/// One checkable structural invariant (paper Sections 2-3).
enum class Invariant {
  kAcyclic,      ///< the overlay is a forest: parent walks terminate
  kFanoutBound,  ///< |Children(i)| <= f_i at every node
  /// Greedy latency ordering on every non-source edge: a parent's
  /// constraint never exceeds its child's (l_parent <= l_child). Only
  /// meaningful for AlgorithmKind::kGreedy runs.
  kGreedyOrder,
  /// The overlay's index agrees with an independent BFS: Root(i) and
  /// DelayAt(i) at every node, and the orphan and satisfied counts.
  kDelayDepth,
  kEpochLease,   ///< every edge's lease names the parent's current epoch
};

/// Stable lower_snake name ("acyclic", "fanout_bound", ...).
const char* to_string(Invariant invariant) noexcept;

/// A single invariant violation with a structured cause tag, suitable
/// for publishing on an EventBus and for JSONL export.
struct InvariantViolation {
  Invariant invariant{};
  NodeId node = kNoNode;    ///< offending node (the child on edge checks)
  NodeId parent = kNoNode;  ///< other endpoint for edge-local checks
  /// Round (or sim-time tick) the audit ran in; stamped by publish().
  Round round = 0;
  /// Structured cause tag: "cycle", "fanout_exceeded", "latency_order",
  /// "delay_depth_mismatch", "root_mismatch", "count_mismatch",
  /// "stale_lease", "future_lease", "unleased_edge".
  const char* cause = "";
  std::string detail;  ///< human-readable specifics
};

/// Result of one audit pass.
struct InvariantReport {
  std::vector<InvariantViolation> violations;
  std::size_t nodes_checked = 0;
  std::size_t edges_checked = 0;

  bool ok() const noexcept { return violations.empty(); }

  /// Human-readable multi-line summary.
  std::string to_string() const;
};

/// The engines' audit sink: one event per violation per audited round.
using AuditBus = telemetry::EventBus<InvariantViolation>;

/// Audits the full paper invariant set: acyclicity, fanout bounds, the
/// overlay's index (Root, DelayAt and the orphan and satisfied counts,
/// recomputed independently by BFS down the children lists), the
/// greedy latency ordering when mode == kGreedy, and — when `epochs` is
/// non-null — epoch-lease consistency (no stale, future, or missing
/// lease on any live edge). Non-fatal: violations are collected, never
/// aborted on.
InvariantReport audit_invariants(const Overlay& overlay, AlgorithmKind mode,
                                 const health::EpochBook* epochs = nullptr);

/// Stamps `round` on every violation, publishes each to `bus`, and
/// bumps the "audit.violations" telemetry counter. Returns the number
/// of violations published.
std::size_t publish(const InvariantReport& report, AuditBus& bus,
                    Round round);

/// Flattens an InvariantViolation into the flight recorder's
/// core-agnostic note shape (telemetry sits below core and cannot see
/// this type).
telemetry::ViolationNote to_violation_note(const InvariantViolation& violation);

/// Forwards every violation published on `bus` into `recorder` — the
/// wiring that makes an engine's audit stream trigger the recorder's
/// post-mortem dump. The recorder must outlive the subscription; the
/// returned id unsubscribes.
AuditBus::SubscriptionId attach_flight_recorder(
    AuditBus& bus, telemetry::FlightRecorder& recorder);

}  // namespace lagover
