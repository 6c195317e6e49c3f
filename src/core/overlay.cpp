#include "core/overlay.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace lagover {

Overlay::Overlay(Population population) : population_(std::move(population)) {
  validate(population_);
  const std::size_t n = population_.consumers.size() + 1;
  specs_.resize(n);
  specs_[kSourceId] = NodeSpec{
      kSourceId, Constraints{population_.source_fanout, /*latency=*/1}};
  for (const NodeSpec& spec : population_.consumers) specs_[spec.id] = spec;
  parent_.assign(n, kNoNode);
  children_.resize(n);
  online_.assign(n, 1);
  online_count_ = population_.consumers.size();
  // Every node starts as its own chain root.
  root_.resize(n);
  for (NodeId id = 0; id < n; ++id) root_[id] = id;
  depth_.assign(n, 0);
  orphan_count_ = online_count_;
  // A subtree holds at most n nodes: relabelling never reallocates.
  walk_.reserve(n);
}

void Overlay::check_id(NodeId id) const {
  LAGOVER_EXPECTS(id < specs_.size());
}

int Overlay::fanout_of(NodeId id) const {
  check_id(id);
  return specs_[id].constraints.fanout;
}

Delay Overlay::latency_of(NodeId id) const {
  check_id(id);
  return specs_[id].constraints.latency;
}

const NodeSpec& Overlay::spec_of(NodeId id) const {
  check_id(id);
  return specs_[id];
}

NodeId Overlay::parent(NodeId id) const {
  check_id(id);
  return parent_[id];
}

const std::vector<NodeId>& Overlay::children(NodeId id) const {
  check_id(id);
  return children_[id];
}

int Overlay::free_fanout(NodeId id) const {
  check_id(id);
  return fanout_of(id) - static_cast<int>(children_[id].size());
}

NodeId Overlay::root(NodeId id) const {
  check_id(id);
  return root_[id];
}

Delay Overlay::delay_at(NodeId id) const {
  check_id(id);
  if (id == kSourceId) return 0;
  // Connected: depth already counts the hop onto the source (a direct
  // child is at depth 1 = poll period). Detached: optimistic +1 for the
  // future hop from the group root onto the source.
  return root_[id] == kSourceId ? depth_[id] : depth_[id] + 1;
}

bool Overlay::in_subtree(NodeId descendant, NodeId ancestor) const {
  check_id(descendant);
  check_id(ancestor);
  NodeId cur = descendant;
  while (true) {
    if (cur == ancestor) return true;
    if (parent_[cur] == kNoNode) return false;
    cur = parent_[cur];
  }
}

std::vector<NodeId> Overlay::subtree(NodeId id) const {
  check_id(id);
  std::vector<NodeId> out;
  std::vector<NodeId> stack{id};
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    out.push_back(cur);
    for (NodeId child : children_[cur]) stack.push_back(child);
  }
  return out;
}

bool Overlay::online(NodeId id) const {
  check_id(id);
  return online_[id] != 0;
}

void Overlay::set_offline(NodeId id) {
  check_id(id);
  LAGOVER_EXPECTS(id != kSourceId);
  if (!online_[id]) return;
  if (parent_[id] != kNoNode) detach(id);
  // Orphan the children: each becomes the root of its own group.
  while (!children_[id].empty()) detach(children_[id].back());
  // id is now a lone, unsatisfied chain root: it leaves the orphans.
  online_[id] = 0;
  --online_count_;
  --orphan_count_;
  ++counters_.offlines;
  report(OverlayChange::kOffline, id, kNoNode);
}

void Overlay::set_online(NodeId id) {
  check_id(id);
  LAGOVER_EXPECTS(id != kSourceId);
  if (online_[id]) return;
  online_[id] = 1;
  ++online_count_;
  ++orphan_count_;
  ++counters_.onlines;
  report(OverlayChange::kOnline, id, kNoNode);
}

bool Overlay::can_attach(NodeId child, NodeId parent) const {
  check_id(child);
  check_id(parent);
  if (child == kSourceId || child == parent) return false;
  if (!online_[child] || !online_[parent]) return false;
  if (parent_[child] != kNoNode) return false;
  if (free_fanout(parent) <= 0) return false;
  // child is a chain root, so a cycle occurs exactly when parent lies in
  // child's subtree, i.e. has child as its root.
  return root_[parent] != child;
}

void Overlay::attach(NodeId child, NodeId parent) {
  LAGOVER_ASSERT_MSG(can_attach(child, parent),
                     "attach precondition violated");
  parent_[child] = parent;
  children_[parent].push_back(child);
  --orphan_count_;
  relabel_subtree(child, root_[parent], depth_[parent] + 1);
  ++counters_.attaches;
  report(OverlayChange::kAttach, child, parent);
}

void Overlay::detach(NodeId child) {
  check_id(child);
  const NodeId p = parent_[child];
  LAGOVER_EXPECTS(p != kNoNode);
  auto& siblings = children_[p];
  const auto it = std::find(siblings.begin(), siblings.end(), child);
  LAGOVER_ASSERT(it != siblings.end());
  siblings.erase(it);
  parent_[child] = kNoNode;
  ++orphan_count_;  // only online nodes have parents
  relabel_subtree(child, child, -depth_[child]);
  ++counters_.detaches;
  report(OverlayChange::kDetach, child, p);
}

void Overlay::relabel_subtree(NodeId top, NodeId new_root, int depth_shift) {
  walk_.assign(1, top);
  while (!walk_.empty()) {
    const NodeId cur = walk_.back();
    walk_.pop_back();
    if (satisfied_unchecked(cur)) --satisfied_count_;
    root_[cur] = new_root;
    depth_[cur] += depth_shift;
    if (satisfied_unchecked(cur)) ++satisfied_count_;
    walk_.insert(walk_.end(), children_[cur].begin(), children_[cur].end());
  }
}

bool Overlay::satisfied(NodeId id) const {
  check_id(id);
  return id == kSourceId || satisfied_unchecked(id);
}

double Overlay::satisfied_fraction() const {
  if (online_count_ == 0) return 1.0;
  return static_cast<double>(satisfied_count()) /
         static_cast<double>(online_count_);
}

void Overlay::audit() const {
  LAGOVER_ASSERT(parent_[kSourceId] == kNoNode);
  LAGOVER_ASSERT(online_[kSourceId] != 0);
  std::size_t observed_online = 0;
  std::size_t observed_orphans = 0;
  std::size_t observed_satisfied = 0;
  for (NodeId id = 0; id < specs_.size(); ++id) {
    // Fanout bound.
    LAGOVER_ASSERT_MSG(
        static_cast<int>(children_[id].size()) <= fanout_of(id),
        "fanout exceeded at node " + std::to_string(id));
    // Parent/child symmetry.
    const NodeId p = parent_[id];
    if (p != kNoNode) {
      LAGOVER_ASSERT(p < specs_.size());
      const auto& siblings = children_[p];
      LAGOVER_ASSERT_MSG(
          std::count(siblings.begin(), siblings.end(), id) == 1,
          "parent/child asymmetry at node " + std::to_string(id));
    }
    for (NodeId child : children_[id])
      LAGOVER_ASSERT_MSG(parent_[child] == id,
                         "child/parent asymmetry at node " +
                             std::to_string(child));
    // The index agrees with the parent links (with acyclicity below,
    // this pins every root and depth).
    const NodeId expected_root = p == kNoNode ? id : root_[p];
    const int expected_depth = p == kNoNode ? 0 : depth_[p] + 1;
    LAGOVER_ASSERT_MSG(
        root_[id] == expected_root && depth_[id] == expected_depth,
        "stale index at node " + std::to_string(id));
    // Offline nodes are fully detached.
    if (!online_[id]) {
      LAGOVER_ASSERT(p == kNoNode);
      LAGOVER_ASSERT(children_[id].empty());
    } else if (id != kSourceId) {
      ++observed_online;
      if (p == kNoNode) ++observed_orphans;
      if (satisfied_unchecked(id)) ++observed_satisfied;
    }
    // Acyclicity: walking up from any node terminates within node_count
    // steps.
    NodeId cur = id;
    std::size_t steps = 0;
    while (parent_[cur] != kNoNode) {
      cur = parent_[cur];
      ++steps;
      LAGOVER_ASSERT_MSG(steps <= specs_.size(),
                         "cycle detected from node " + std::to_string(id));
    }
  }
  LAGOVER_ASSERT(observed_online == online_count_);
  LAGOVER_ASSERT(observed_orphans == orphan_count_);
  LAGOVER_ASSERT(observed_satisfied == satisfied_count_);
}

NodeId Overlay::first_greedy_order_violation() const {
  for (NodeId id = 1; id < specs_.size(); ++id) {
    const NodeId p = parent_[id];
    if (p == kNoNode || p == kSourceId) continue;
    if (latency_of(p) > latency_of(id)) return id;
  }
  return kNoNode;
}

std::string Overlay::to_ascii() const {
  std::ostringstream out;
  // Print the source tree first, then detached groups by root id.
  std::vector<NodeId> roots;
  for (NodeId id = 0; id < specs_.size(); ++id)
    if (parent_[id] == kNoNode && online_[id]) roots.push_back(id);

  auto print_subtree = [&](NodeId node, auto&& self, int indent) -> void {
    out << std::string(static_cast<std::size_t>(indent) * 2, ' ');
    if (node == kSourceId) {
      out << "0 (source, fanout " << fanout_of(node) << ")\n";
    } else {
      out << to_notation(specs_[node]) << "  delay=" << delay_at(node)
          << (satisfied(node) ? "" : "  [unsatisfied]") << '\n';
    }
    for (NodeId child : children_[node]) self(child, self, indent + 1);
  };

  for (NodeId r : roots) {
    if (r == kSourceId)
      out << "-- source tree --\n";
    else
      out << "-- detached group (root " << r << ") --\n";
    print_subtree(r, print_subtree, 0);
  }
  return out.str();
}

}  // namespace lagover
