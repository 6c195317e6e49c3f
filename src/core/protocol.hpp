// Construction-protocol interface shared by the Greedy (Section 3.1) and
// Hybrid (Algorithm 2) algorithms, plus the reconfiguration primitives
// both are built from (attach-under with child displacement, replace-at,
// source contact with displacement of a laxer direct child).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "core/overlay.hpp"
#include "core/types.hpp"

namespace lagover {

/// Outcome of one pairwise interaction i <-> j initiated by orphan i.
struct InteractionResult {
  /// Did i acquire a parent during this interaction?
  bool attached = false;
  /// Referral for i's next interaction: a node further upstream
  /// ("use k as the next reference"), or kSourceId meaning "contact the
  /// source next" (Algorithm 2's 'refer i to 0'). Empty = ask the Oracle.
  std::optional<NodeId> referral;
};

/// Event counters the protocols maintain; the experiment recorders
/// surface these (e.g. number of reconfigurations under churn).
struct ProtocolCounters {
  std::uint64_t interactions = 0;
  std::uint64_t wasted_interactions = 0;  ///< partner was in i's own group
  std::uint64_t plain_attaches = 0;       ///< i <- j with a free slot
  std::uint64_t displacements = 0;        ///< m <- i <- j child displacement
  std::uint64_t replacements = 0;         ///< j <- i <- k slot replacement
  std::uint64_t child_discards = 0;       ///< hybrid made room by discarding
  std::uint64_t source_attaches = 0;      ///< i <- 0 on free capacity
  std::uint64_t source_replacements = 0;  ///< c <- i <- 0 displacing laxer c
  std::uint64_t failed_source_contacts = 0;
  /// Construction state (referral / cached partner / failover grant)
  /// rejected because it named a previous incarnation of the target —
  /// the epoch fence of the health layer (see health/lease.hpp).
  std::uint64_t stale_epoch_rejections = 0;
};

/// A LagOver construction algorithm: decides what happens when a
/// parentless chain root i interacts with partner j, how i behaves when
/// its timeout fires (direct source contact), and how aggressively
/// connected nodes abandon parents that violate their latency constraint.
class Protocol {
 public:
  explicit Protocol(SourceMode source_mode) : source_mode_(source_mode) {}
  virtual ~Protocol() = default;

  virtual AlgorithmKind kind() const noexcept = 0;

  /// Handles one interaction. Preconditions: i is an online parentless
  /// consumer; j is an online consumer distinct from i. A j inside i's
  /// own group is tolerated (counted as a wasted interaction).
  virtual InteractionResult interact(Overlay& overlay, NodeId i, NodeId j) = 0;

  /// Timeout path (Algorithm 2 steps 2-8): i contacts the source.
  /// Attaches on free capacity; otherwise displaces the laxest direct
  /// child c with l_c > l_i (c becomes i's child when i has a free slot).
  /// Returns true iff i ended up attached to the source.
  bool contact_source(Overlay& overlay, NodeId i);

  /// Maintenance damping: how many consecutive rounds a connected node
  /// tolerates a violated latency constraint before discarding its
  /// parent. Greedy reacts immediately (0); Hybrid waits for a timeout
  /// (Section 3.4's "more aggressive condition" needs damping).
  virtual int maintenance_patience() const noexcept = 0;

  SourceMode source_mode() const noexcept { return source_mode_; }
  const ProtocolCounters& counters() const noexcept { return counters_; }

  /// Counts one epoch-fence rejection (called by the node runtime,
  /// which owns the epoch-stamped state the fence guards).
  void note_stale_epoch() noexcept { ++counters_.stale_epoch_rejections; }

  /// Enables/disables the orphaning-displacement move (a strictly laxer
  /// child yields its slot and restarts as a chain root when adoption is
  /// impossible). On by default — without it, saturated group roots
  /// deadlock on capacity-tight workloads (see DESIGN.md); off
  /// approximates the paper's described moves for ablation.
  void set_orphaning_displacement(bool enabled) noexcept {
    orphaning_displacement_ = enabled;
  }
  bool orphaning_displacement() const noexcept {
    return orphaning_displacement_;
  }

  /// Adversary interposition (fault layer): what a *remote* node tells
  /// its peers its DelayAt is. Every admission check that reads another
  /// node's delay goes through claimed_delay(), so a delay-liar's
  /// understatement poisons exactly the decisions that real peers make
  /// from reports — while a node's checks of its OWN delay (maintenance)
  /// keep using ground truth. Null (the default) = everyone honest; the
  /// adversary-free path computes identical results.
  using DelayClaim = std::function<Delay(NodeId node, Delay true_delay)>;
  void set_delay_claim(DelayClaim claim) noexcept {
    delay_claim_ = std::move(claim);
  }

  /// The delay `node` reports to peers (ground truth without a claim
  /// hook; the source never lies).
  Delay claimed_delay(const Overlay& overlay, NodeId node) const {
    const Delay truth = overlay.delay_at(node);
    if (!delay_claim_ || node == kSourceId) return truth;
    return delay_claim_(node, truth);
  }

 protected:
  /// Tries to attach orphan root c directly under p (no displacement).
  /// Checks fanout, cycle-freedom, and the delay bound
  /// DelayAt(p) + 1 <= l_c (optimistic for detached groups).
  bool try_plain_attach(Overlay& overlay, NodeId c, NodeId p);

  /// Tries i <- j, displacing a child m of j (m <- i <- j) when j's
  /// fanout is saturated. `require_greedy_order` additionally demands
  /// l_j <= l_i and l_i <= l_m so the greedy invariant is preserved.
  bool try_attach_with_displacement(Overlay& overlay, NodeId i, NodeId j,
                                    bool require_greedy_order);

  /// Tries j <- i <- k: i takes j's slot under k and adopts j
  /// (Algorithm 2 steps 17/25/31/38). `allow_child_discard` lets i evict
  /// its laxest child to free the slot for j. All latency constraints of
  /// directly affected nodes are checked before mutating.
  bool try_replace_at(Overlay& overlay, NodeId i, NodeId j, NodeId k,
                      bool allow_child_discard);

  /// Picks the child of p with the laxest latency constraint
  /// (ties: highest id for determinism); kNoNode if p has no children.
  static NodeId laxest_child(const Overlay& overlay, NodeId p);

  ProtocolCounters counters_;

 private:
  SourceMode source_mode_;
  bool orphaning_displacement_ = true;
  DelayClaim delay_claim_;
};

}  // namespace lagover
