#include "core/overlay.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace lagover {

Overlay::Overlay(Population population) {
  validate(population);
  const std::size_t n = population.consumers.size() + 1;
  specs_.resize(n);
  specs_[kSourceId] = NodeSpec{
      kSourceId, Constraints{population.source_fanout, /*latency=*/1}};
  for (const NodeSpec& spec : population.consumers) specs_[spec.id] = spec;
  parent_.assign(n, kNoNode);
  children_.resize(n);
  online_.assign(n, 1);
  online_count_ = population.consumers.size();
  // Every node starts as its own chain root.
  root_.resize(n);
  for (NodeId id = 0; id < n; ++id) root_[id] = id;
  depth_.assign(n, 0);
  orphan_count_ = online_count_;
  // A subtree holds at most n nodes: relabelling never reallocates.
  walk_.reserve(n);
  // The candidate index, filled in one pass. Every consumer starts
  // online and parentless, so at delay 1: the first level holds them
  // all, those with fanout from the front and the rest from the back,
  // and every later segment is empty.
  slots_.resize(n - 1);
  slot_of_.resize(n);
  std::uint32_t front = 0;
  auto back = static_cast<std::uint32_t>(n - 1);
  for (NodeId id = 1; id < n; ++id) {
    const Constraints& constraints = specs_[id].constraints;
    levels_ = std::max(levels_, constraints.latency);
    const std::uint32_t slot = constraints.fanout > 0 ? front++ : --back;
    slots_[slot] = id;
    slot_of_[id] = slot;
  }
  // No chain is longer than the consumers, so no delay exceeds their
  // count: more levels than that would stay empty, and an l read from
  // input must not size the index.
  if (static_cast<std::size_t>(levels_) > n - 1)
    levels_ = static_cast<Delay>(std::max<std::size_t>(n - 1, 1));
  bounds_.assign(2 * static_cast<std::size_t>(levels_) + 2,
                 static_cast<std::uint32_t>(n - 1));
  bounds_[0] = 0;
  bounds_[1] = front;
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
  reindex(id);
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
  reindex(id);
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
  if (parent != kSourceId) reindex(parent);
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
  if (p != kSourceId) reindex(p);
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
    reindex(cur);
    walk_.insert(walk_.end(), children_[cur].begin(), children_[cur].end());
  }
}

std::size_t Overlay::segment_for(NodeId id) const {
  const auto levels = static_cast<std::size_t>(levels_);
  if (!online_[id]) return 2 * levels;
  const auto level = static_cast<std::size_t>(std::min(delay_at(id), levels_));
  const bool full = free_fanout(id) <= 0;
  return 2 * (level - 1) + (full ? 1 : 0);
}

std::size_t Overlay::segment_at(std::uint32_t slot) const {
  // The last segment starting at or before the slot (empty segments
  // share their start with the next one).
  const auto after = std::upper_bound(bounds_.begin(), bounds_.end(), slot);
  return static_cast<std::size_t>(after - bounds_.begin()) - 1;
}

void Overlay::reindex(NodeId id) {
  const std::size_t to = segment_for(id);
  std::size_t from = segment_at(slot_of_[id]);
  // Down the array: to the last slot of its segment, which the boundary
  // then hands to the next one. Up: to the first slot, likewise.
  for (; from < to; ++from) swap_slots(id, --bounds_[from + 1]);
  for (; from > to; --from) swap_slots(id, bounds_[from]++);
}

void Overlay::swap_slots(NodeId id, std::uint32_t slot) {
  const NodeId other = slots_[slot];
  slots_[slot_of_[id]] = other;
  slot_of_[other] = slot_of_[id];
  slots_[slot] = id;
  slot_of_[id] = slot;
}

std::size_t Overlay::count_on_levels(Delay levels, bool free_only) const {
  LAGOVER_EXPECTS(levels >= 0 && levels <= levels_);
  const std::size_t end = 2 * static_cast<std::size_t>(levels);
  // The levels' segments are one prefix of the array.
  if (!free_only) return bounds_[end];
  std::size_t count = 0;
  for (std::size_t s = 0; s < end; s += 2) count += bounds_[s + 1] - bounds_[s];
  return count;
}

NodeId Overlay::nth_on_levels(std::size_t k, Delay levels,
                              bool free_only) const {
  LAGOVER_EXPECTS(levels >= 0 && levels <= levels_);
  const std::size_t end = 2 * static_cast<std::size_t>(levels);
  if (!free_only) {
    LAGOVER_EXPECTS(k < bounds_[end]);
    return slots_[k];
  }
  for (std::size_t s = 0; s < end; s += 2) {
    const std::size_t size = bounds_[s + 1] - bounds_[s];
    if (k < size) return slots_[bounds_[s] + k];
    k -= size;
  }
  LAGOVER_ASSERT_MSG(false, "k past count_on_levels(levels, free_only)");
  return kNoNode;
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
  LAGOVER_ASSERT(bounds_.front() == 0 && bounds_.back() == slots_.size() &&
                 std::is_sorted(bounds_.begin(), bounds_.end()));
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
    // The candidate index holds each consumer once, in its own segment
    // (slot_of_ is then a bijection onto the n - 1 slots).
    if (id != kSourceId) {
      LAGOVER_ASSERT_MSG(
          slot_of_[id] < slots_.size() && slots_[slot_of_[id]] == id,
          "stale slot at node " + std::to_string(id));
      LAGOVER_ASSERT_MSG(segment_at(slot_of_[id]) == segment_for(id),
                         "wrong segment at node " + std::to_string(id));
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
