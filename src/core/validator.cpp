#include "core/validator.hpp"

#include <queue>
#include <sstream>

#include "telemetry/metrics.hpp"

namespace lagover {

std::string to_string(NodeIssue issue) {
  switch (issue) {
    case NodeIssue::kNone: return "satisfied";
    case NodeIssue::kOffline: return "offline";
    case NodeIssue::kParentless: return "parentless";
    case NodeIssue::kDisconnected: return "in detached group";
    case NodeIssue::kDelayExceeded: return "delay exceeds constraint";
  }
  return "?";
}

ValidationReport validate_overlay(const Overlay& overlay) {
  ValidationReport report;
  report.consumers = overlay.consumer_count();
  for (NodeId id = 1; id < overlay.node_count(); ++id) {
    NodeDiagnosis diagnosis;
    diagnosis.node = id;
    diagnosis.delay = overlay.delay_at(id);
    diagnosis.constraint = overlay.latency_of(id);

    if (!overlay.online(id)) {
      diagnosis.issue = NodeIssue::kOffline;
    } else if (!overlay.has_parent(id)) {
      diagnosis.issue = NodeIssue::kParentless;
    } else if (!overlay.connected(id)) {
      diagnosis.issue = NodeIssue::kDisconnected;
    } else if (diagnosis.delay > diagnosis.constraint) {
      diagnosis.issue = NodeIssue::kDelayExceeded;
    } else {
      diagnosis.issue = NodeIssue::kNone;
      ++report.satisfied;
      continue;
    }
    report.issues.push_back(diagnosis);
  }
  return report;
}

std::string ValidationReport::to_string() const {
  std::ostringstream out;
  out << satisfied << '/' << consumers << " consumers satisfied";
  if (issues.empty()) {
    out << " — LagOver constructed\n";
    return out.str();
  }
  out << "; " << issues.size() << " issue(s):\n";
  for (const NodeDiagnosis& diagnosis : issues) {
    out << "  node " << diagnosis.node << ": "
        << lagover::to_string(diagnosis.issue) << " (delay "
        << diagnosis.delay << ", constraint " << diagnosis.constraint
        << ")\n";
  }
  return out.str();
}

EpochAudit audit_epochs(const Overlay& overlay,
                        const health::EpochBook& epochs) {
  EpochAudit audit;
  const std::size_t n = overlay.node_count();
  for (NodeId id = 1; id < n; ++id) {
    const NodeId parent = overlay.parent(id);
    if (parent == kNoNode) continue;
    if (!epochs.has_lease(id)) {
      audit.unleased_edges.push_back(id);
      continue;
    }
    if (!epochs.lease_valid(id, parent)) audit.stale_edges.push_back(id);
  }
  // Acyclicity: walking up from any node must terminate within n steps.
  for (NodeId id = 1; id < n && audit.acyclic; ++id) {
    NodeId cur = id;
    std::size_t steps = 0;
    while (overlay.parent(cur) != kNoNode) {
      cur = overlay.parent(cur);
      if (++steps > n) {
        audit.acyclic = false;
        break;
      }
    }
  }
  return audit;
}

std::string EpochAudit::to_string() const {
  std::ostringstream out;
  out << "epoch audit: " << stale_edges.size() << " stale edge(s), "
      << unleased_edges.size() << " unleased edge(s), "
      << (acyclic ? "acyclic" : "CYCLE DETECTED");
  return out.str();
}

const char* to_string(Invariant invariant) noexcept {
  switch (invariant) {
    case Invariant::kAcyclic: return "acyclic";
    case Invariant::kFanoutBound: return "fanout_bound";
    case Invariant::kGreedyOrder: return "greedy_order";
    case Invariant::kDelayDepth: return "delay_depth";
    case Invariant::kEpochLease: return "epoch_lease";
  }
  return "?";
}

namespace {

void add_violation(InvariantReport& report, Invariant invariant, NodeId node,
                   NodeId parent, const char* cause, std::string detail) {
  InvariantViolation violation;
  violation.invariant = invariant;
  violation.node = node;
  violation.parent = parent;
  violation.cause = cause;
  violation.detail = std::move(detail);
  report.violations.push_back(std::move(violation));
}

}  // namespace

InvariantReport audit_invariants(const Overlay& overlay, AlgorithmKind mode,
                                 const health::EpochBook* epochs) {
  InvariantReport report;
  const std::size_t n = overlay.node_count();
  report.nodes_checked = n;

  // Independent depth recomputation: BFS down the children lists from
  // every chain root. Any node left unvisited sits on a parent cycle
  // (parent/child symmetry is enforced structurally by Overlay), which
  // also covers the acyclicity invariant without unbounded walks.
  std::vector<int> depth(n, -1);
  std::vector<NodeId> root_of(n, kNoNode);
  std::queue<NodeId> frontier;
  for (NodeId id = 0; id < n; ++id) {
    if (overlay.parent(id) != kNoNode) continue;
    depth[id] = 0;
    root_of[id] = id;
    frontier.push(id);
  }
  while (!frontier.empty()) {
    const NodeId cur = frontier.front();
    frontier.pop();
    for (const NodeId child : overlay.children(cur)) {
      if (depth[child] != -1) continue;
      depth[child] = depth[cur] + 1;
      root_of[child] = root_of[cur];
      frontier.push(child);
    }
  }

  std::size_t orphans = 0;
  std::size_t satisfied = 0;
  for (NodeId id = 0; id < n; ++id) {
    const NodeId parent = overlay.parent(id);
    if (parent != kNoNode) ++report.edges_checked;

    if (depth[id] == -1) {
      add_violation(report, Invariant::kAcyclic, id, parent, "cycle",
                    "node " + std::to_string(id) +
                        " is unreachable from any chain root (parent cycle)");
      continue;  // depth-derived checks are meaningless on a cycle
    }
    if (id != kSourceId && overlay.online(id)) {
      if (parent == kNoNode) ++orphans;
      if (root_of[id] == kSourceId && depth[id] <= overlay.latency_of(id))
        ++satisfied;
    }

    // Fanout bound |Children(i)| <= f_i.
    const int children = static_cast<int>(overlay.children(id).size());
    if (children > overlay.fanout_of(id))
      add_violation(report, Invariant::kFanoutBound, id, kNoNode,
                    "fanout_exceeded",
                    "node " + std::to_string(id) + " serves " +
                        std::to_string(children) + " children, bound " +
                        std::to_string(overlay.fanout_of(id)));

    // DelayAt == depth (connected) or depth-below-root + 1 (detached,
    // the optimistic local estimate); DelayAt(source) == 0.
    const Delay expected =
        id == kSourceId
            ? 0
            : (root_of[id] == kSourceId ? depth[id] : depth[id] + 1);
    const Delay reported = overlay.delay_at(id);
    if (reported != expected)
      add_violation(report, Invariant::kDelayDepth, id, parent,
                    "delay_depth_mismatch",
                    "node " + std::to_string(id) + " reports DelayAt " +
                        std::to_string(reported) + ", recomputed depth " +
                        std::to_string(expected));
    if (overlay.root(id) != root_of[id])
      add_violation(report, Invariant::kDelayDepth, id, parent,
                    "root_mismatch",
                    "node " + std::to_string(id) + " reports Root " +
                        std::to_string(overlay.root(id)) + ", recomputed " +
                        std::to_string(root_of[id]));

    if (parent == kNoNode) continue;

    // Greedy latency ordering on non-source edges: l_parent <= l_child.
    if (mode == AlgorithmKind::kGreedy && parent != kSourceId &&
        overlay.latency_of(parent) > overlay.latency_of(id))
      add_violation(report, Invariant::kGreedyOrder, id, parent,
                    "latency_order",
                    "edge " + std::to_string(id) + " <- " +
                        std::to_string(parent) + " violates l_parent (" +
                        std::to_string(overlay.latency_of(parent)) +
                        ") <= l_child (" +
                        std::to_string(overlay.latency_of(id)) + ")");

    // Epoch-lease consistency: every live edge carries a lease on the
    // parent's *current* incarnation.
    if (epochs != nullptr && epochs->size() == n) {
      if (!epochs->has_lease(id)) {
        add_violation(report, Invariant::kEpochLease, id, parent,
                      "unleased_edge",
                      "edge " + std::to_string(id) + " <- " +
                          std::to_string(parent) + " has no recorded lease");
      } else if (epochs->lease_epoch(id) > epochs->epoch(parent)) {
        add_violation(report, Invariant::kEpochLease, id, parent,
                      "future_lease",
                      "edge " + std::to_string(id) + " <- " +
                          std::to_string(parent) + " leased epoch " +
                          std::to_string(epochs->lease_epoch(id)) +
                          " ahead of the parent's " +
                          std::to_string(epochs->epoch(parent)));
      } else if (!epochs->lease_valid(id, parent)) {
        add_violation(report, Invariant::kEpochLease, id, parent,
                      "stale_lease",
                      "edge " + std::to_string(id) + " <- " +
                          std::to_string(parent) + " leased epoch " +
                          std::to_string(epochs->lease_epoch(id)) +
                          ", parent is at " +
                          std::to_string(epochs->epoch(parent)));
      }
    }
  }

  const auto check_count = [&report](const char* what, std::size_t reported,
                                     std::size_t recomputed) {
    if (reported == recomputed) return;
    add_violation(report, Invariant::kDelayDepth, kNoNode, kNoNode,
                  "count_mismatch",
                  std::string(what) + " reported " + std::to_string(reported) +
                      ", recomputed " + std::to_string(recomputed));
  };
  check_count("orphans", overlay.orphan_count(), orphans);
  check_count("satisfied", overlay.satisfied_count(), satisfied);
  return report;
}

std::string InvariantReport::to_string() const {
  std::ostringstream out;
  out << "invariant audit: " << nodes_checked << " node(s), "
      << edges_checked << " edge(s), " << violations.size()
      << " violation(s)";
  for (const InvariantViolation& violation : violations)
    out << "\n  [" << lagover::to_string(violation.invariant) << "/"
        << violation.cause << "] " << violation.detail;
  return out.str();
}

std::size_t publish(const InvariantReport& report, AuditBus& bus,
                    Round round) {
  for (InvariantViolation violation : report.violations) {
    violation.round = round;
    bus.publish(violation);
    TELEM_COUNT("audit.violations", 1);
  }
  return report.violations.size();
}

telemetry::ViolationNote to_violation_note(
    const InvariantViolation& violation) {
  telemetry::ViolationNote note;
  note.ts = static_cast<double>(violation.round);
  note.invariant = to_string(violation.invariant);
  note.cause = violation.cause;
  note.node = violation.node;
  note.parent = violation.parent;
  note.detail = violation.detail;
  return note;
}

AuditBus::SubscriptionId attach_flight_recorder(
    AuditBus& bus, telemetry::FlightRecorder& recorder) {
  return bus.subscribe([&recorder](const InvariantViolation& violation) {
    recorder.note_violation(to_violation_note(violation));
  });
}

}  // namespace lagover
