// The LagOver overlay state: a forest over {source} ∪ consumers that the
// construction algorithms evolve toward a single dissemination tree
// rooted at the source.
//
// Terminology (paper Section 2): each node has at most one parent;
// Parent()/Children()/Root()/DelayAt() mirror Table 1. A node whose
// chain root is the source actually receives the feed; detached groups
// report an *optimistic* delay (their depth within the group + 1,
// i.e. as if the group root were polling the source directly), which is
// the local knowledge a group has while bootstrapping.
//
// The overlay is the one structural index of a run: it keeps every
// node's chain root and depth below it, plus running orphan and
// satisfied counts, so Root(), DelayAt(), satisfaction and the counts
// are O(1) reads. attach/detach/set_offline/set_online keep them up to
// date by relabelling exactly the subtree that moved.
//
// It also keeps the Oracle's candidate index: every consumer in one
// slot array, split into segments by (delay level, has free fanout),
// with the offline nodes in a tail segment. A node whose level or free
// fanout changes moves by swapping across the boundaries in between,
// so the index allocates nothing after construction, and a uniform
// draw over any union of levels costs O(levels).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace lagover {

/// Structural counters maintained incrementally by Overlay.
struct OverlayCounters {
  std::uint64_t attaches = 0;
  std::uint64_t detaches = 0;
  std::uint64_t offlines = 0;
  std::uint64_t onlines = 0;
};

/// A structural change an Overlay reports to its outlet.
enum class OverlayChange { kAttach, kDetach, kOffline, kOnline };

/// Mutable overlay (forest) state with structural enforcement of fanout
/// bounds and acyclicity. Algorithms mutate it only through
/// attach/detach/set_offline/set_online, so the invariants checked by
/// audit() hold at every step.
class Overlay {
 public:
  /// Constructs the overlay for a validated population; all consumers
  /// start online and parentless.
  explicit Overlay(Population population);

  /// Copies carry the structure but NOT the outlet: it is wiring
  /// installed by the owning runtime and must not dangle into it from a
  /// snapshot copy. Moves keep it.
  Overlay(const Overlay&) = default;
  Overlay& operator=(const Overlay&) = default;
  Overlay(Overlay&&) = default;
  Overlay& operator=(Overlay&&) = default;

  // --- population ---------------------------------------------------
  std::size_t consumer_count() const noexcept { return specs_.size() - 1; }
  /// Total node count including the source.
  std::size_t node_count() const noexcept { return specs_.size(); }

  int fanout_of(NodeId id) const;
  Delay latency_of(NodeId id) const;
  const NodeSpec& spec_of(NodeId id) const;

  // --- structure queries ---------------------------------------------
  /// Parent(), or kNoNode for chain roots and the source.
  NodeId parent(NodeId id) const;
  const std::vector<NodeId>& children(NodeId id) const;
  bool has_parent(NodeId id) const { return parent(id) != kNoNode; }
  int free_fanout(NodeId id) const;

  /// Root(): the top of id's chain (the source if connected). Root of
  /// the source is the source itself.
  NodeId root(NodeId id) const;

  /// True iff Root(id) == source, i.e. the node actually receives the feed.
  bool connected(NodeId id) const { return root(id) == kSourceId; }

  /// DelayAt(): tree depth if connected; depth-within-group + 1
  /// (optimistic) for detached nodes. DelayAt(source) == 0.
  Delay delay_at(NodeId id) const;

  /// True iff `descendant` lies in the subtree rooted at `ancestor`
  /// (a node is its own descendant).
  bool in_subtree(NodeId descendant, NodeId ancestor) const;

  /// All nodes in the subtree rooted at id (preorder), including id.
  std::vector<NodeId> subtree(NodeId id) const;

  // --- online state ----------------------------------------------------
  bool online(NodeId id) const;
  /// Takes a consumer offline: detaches it from its parent and orphans
  /// its children (they become chain roots). No-op if already offline.
  void set_offline(NodeId id);
  /// Brings a consumer back online as a fresh parentless node.
  void set_online(NodeId id);
  std::size_t online_count() const noexcept { return online_count_; }
  /// Online consumers without a parent (chain roots seeking one).
  std::size_t orphan_count() const noexcept { return orphan_count_; }

  // --- mutation --------------------------------------------------------
  /// Attaches `child` (currently parentless, online) under `parent`
  /// (online or the source, with free fanout, not inside child's
  /// subtree). Precondition violations abort; callers use can_attach()
  /// to test first.
  void attach(NodeId child, NodeId parent);

  /// True iff attach(child, parent) would satisfy its preconditions.
  bool can_attach(NodeId child, NodeId parent) const;

  /// Removes `child` from its parent, making it a chain root (its own
  /// subtree stays with it). Precondition: has_parent(child).
  void detach(NodeId child);

  // --- outlet -----------------------------------------------------------
  /// Called after every attach, detach, set_offline and set_online that
  /// changed the overlay, with the subject and, for attach and detach,
  /// the parent (kNoNode otherwise). The owning runtime installs it to
  /// keep its lease book and publish the change; a bare overlay reports
  /// to no one. It must not mutate the overlay. nullptr removes it.
  using Outlet =
      std::function<void(OverlayChange change, NodeId subject, NodeId parent)>;
  void set_outlet(Outlet outlet) { outlet_.report = std::move(outlet); }

  // --- constraint satisfaction ------------------------------------------
  /// True iff id is online, connected, and DelayAt(id) <= l_id.
  bool satisfied(NodeId id) const;

  /// Number of online consumers currently satisfied.
  std::size_t satisfied_count() const noexcept { return satisfied_count_; }

  /// True iff every online consumer is satisfied ("the LagOver is
  /// constructed").
  bool all_satisfied() const noexcept {
    return satisfied_count_ == online_count_;
  }

  /// Fraction of online consumers satisfied (1.0 when no one is online).
  double satisfied_fraction() const;

  const OverlayCounters& counters() const noexcept { return counters_; }

  // --- candidate index ---------------------------------------------------
  /// Every online consumer sits on one delay level: level d below
  /// delay_levels() holds the nodes with DelayAt == d, and the last
  /// level every node with DelayAt >= delay_levels(): the population's
  /// largest l, capped at consumer_count() (no delay exceeds it) and 1
  /// when there are no consumers. Within a level, the nodes with free
  /// fanout come first.
  Delay delay_levels() const noexcept { return levels_; }

  /// Online consumers on levels 1..levels (0 <= levels <=
  /// delay_levels()), only those with free fanout when `free_only`.
  /// O(1), or O(levels) with `free_only`.
  std::size_t count_on_levels(Delay levels, bool free_only) const;

  /// The k-th of those nodes, k < count_on_levels(levels, free_only), in
  /// index order: arbitrary, but fixed by the operations so far.
  NodeId nth_on_levels(std::size_t k, Delay levels, bool free_only) const;

  // --- diagnostics -----------------------------------------------------
  /// Verifies structural invariants (parent/child symmetry, fanout
  /// bounds, acyclicity, offline nodes detached), that the index agrees
  /// with the parent links, and that every consumer holds its own slot
  /// in the segment its state asks for; aborts with a message on
  /// violation. Cheap enough to call per round in tests.
  void audit() const;

  /// Checks the greedy ordering invariant i <- j ==> l_j <= l_i over all
  /// edges (source edges trivially hold); returns the first offending
  /// child id or kNoNode.
  NodeId first_greedy_order_violation() const;

  /// Multi-line ASCII rendering of the forest (for traces and examples).
  std::string to_ascii() const;

 private:
  /// The outlet, in a holder whose copies start empty (see the copy
  /// constructor's comment); moves keep it.
  struct OutletHolder {
    Outlet report;

    OutletHolder() = default;
    OutletHolder(const OutletHolder& /*other*/) {}
    OutletHolder& operator=(const OutletHolder& /*other*/) {
      report = nullptr;
      return *this;
    }
    OutletHolder(OutletHolder&&) = default;
    OutletHolder& operator=(OutletHolder&&) = default;
  };

  void check_id(NodeId id) const;
  void report(OverlayChange change, NodeId subject, NodeId parent) const {
    if (outlet_.report) outlet_.report(change, subject, parent);
  }
  /// satisfied() without the id check, read off the index.
  bool satisfied_unchecked(NodeId id) const {
    return online_[id] != 0 && root_[id] == kSourceId &&
           depth_[id] <= specs_[id].constraints.latency;
  }
  /// Moves `top`'s subtree under chain root `new_root`, shifting every
  /// member's depth by `depth_shift` and the satisfied count with it.
  void relabel_subtree(NodeId top, NodeId new_root, int depth_shift);
  /// The candidate segment consumer `id`'s state asks for: 2 (level - 1)
  /// with free fanout, one more without, 2 delay_levels() when offline.
  std::size_t segment_for(NodeId id) const;
  /// The segment holding `slot`.
  std::size_t segment_at(std::uint32_t slot) const;
  /// Moves consumer `id` to segment_for(id), swapping it across each
  /// boundary in between.
  void reindex(NodeId id);
  void swap_slots(NodeId id, std::uint32_t slot);

  std::vector<NodeSpec> specs_;       // index = id; [0] is the source
  std::vector<NodeId> parent_;        // kNoNode for roots
  std::vector<std::vector<NodeId>> children_;
  std::vector<char> online_;          // [0] always true
  std::size_t online_count_ = 0;      // consumers only
  // --- the index: per node its chain root (itself for roots) and its
  // depth below that root; orphan_count() and satisfied_count().
  std::vector<NodeId> root_;
  std::vector<int> depth_;
  std::size_t orphan_count_ = 0;
  std::size_t satisfied_count_ = 0;
  /// relabel_subtree()'s stack, reused across calls.
  std::vector<NodeId> walk_;
  // --- the candidate index: consumers in slots_, segment s spanning
  // [bounds_[s], bounds_[s + 1]); slot_of_[id] is id's slot ([0], the
  // source's, is unused).
  Delay levels_ = 1;
  std::vector<NodeId> slots_;
  std::vector<std::uint32_t> slot_of_;
  std::vector<std::uint32_t> bounds_;
  OverlayCounters counters_;
  OutletHolder outlet_;
};

}  // namespace lagover
