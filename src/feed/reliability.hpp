// Lossy dissemination and recovery. The base dissemination model
// assumes perfect push delivery; real overlay links drop messages. The
// lossy model adds per-push loss, duplicate injection, free-riders and
// two repair strategies over the feed's sequence numbers. It runs the
// one event loop in dissemination.cpp, of which the ideal model is the
// zero-loss, no-repair case:
//
//   * kAntiEntropy — blanket repair: every recovery tick the child asks
//     its parent for *everything* the parent holds that it lacks. One
//     repair request per tick, whether or not anything is missing.
//   * kNack — gap detection: the child scans the sequence space against
//     the parent's high-water mark and sends a NACK naming exactly the
//     missing sequence numbers — and only on ticks where gaps exist.
//     Same repair set as blanket (so the same delivery ratio), strictly
//     fewer repair messages.
//
// Duplicate suppression is sequence-number based: an item already
// applied is counted and dropped, so each consumer applies every item
// at most once even under duplicate injection.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/overlay.hpp"
#include "fault/byzantine.hpp"
#include "feed/dissemination.hpp"

namespace lagover::feed {

/// Repair strategy run on each child-from-parent recovery tick.
enum class RepairMode {
  kAntiEntropy,  ///< blanket "send all I lack" pull every tick
  kNack,         ///< sequence-gap NACK, sent only when gaps exist
};

struct LossyConfig {
  DisseminationConfig base;
  double push_loss = 0.1;        ///< per-push drop probability
  bool enable_recovery = true;   ///< repair loop on/off
  double recovery_period = 2.0;  ///< child-from-parent repair interval
  RepairMode repair = RepairMode::kAntiEntropy;
  /// Per-push probability that the link delivers a second copy of the
  /// item (models retransmit storms / at-least-once transports). 0
  /// draws no extra RNG, keeping legacy runs byte-identical.
  double duplicate_probability = 0.0;
  /// Byzantine adversary layer: free-riders accept the feed but never
  /// relay it downstream (pushes withheld, repair pulls ignored). Null
  /// or an empty book changes nothing — no extra RNG is drawn either
  /// way (withholding is a pure role lookup).
  std::shared_ptr<const fault::AdversaryBook> adversary;

  /// RNG stream for loss decisions, derived from the base seed.
  std::uint64_t seed_mix() const noexcept {
    return base.seed ^ 0x1055E5ULL;
  }
};

struct LossyReport {
  SimTime duration = 0.0;
  std::uint64_t items_published = 0;
  std::size_t connected_consumers = 0;
  std::uint64_t expected_deliveries = 0;  ///< published x connected
  std::uint64_t push_deliveries = 0;
  std::uint64_t lost_pushes = 0;
  std::uint64_t recovered_deliveries = 0;  ///< via repair
  std::uint64_t recovery_pulls = 0;        ///< repair requests sent
  double delivery_ratio = 0.0;             ///< all deliveries / expected
  /// Deliveries later than the node's staleness budget (recovered items
  /// typically are; this is the price of losing the original push).
  std::uint64_t late_deliveries = 0;
  /// Items applied (first receipt) across all consumers — dedup means
  /// applications == push_deliveries + recovered_deliveries always.
  std::uint64_t applications = 0;
  /// Extra copies injected by duplicate_probability.
  std::uint64_t duplicate_pushes = 0;
  /// Received copies of already-applied items dropped by suppression.
  std::uint64_t duplicates_suppressed = 0;
  /// Individual sequence numbers requested via NACK (kNack mode only).
  std::uint64_t nacked_items = 0;
  /// Pushes a free-riding relay swallowed instead of forwarding
  /// (adversary layer; includes repair answers it refused to give).
  std::uint64_t withheld_pushes = 0;
  /// Pushes shed at a relay's capacity budget (base.capacity). Shed
  /// items stay recoverable through the repair loop — capacity overload
  /// degrades freshness, it does not permanently lose items.
  std::uint64_t shed_pushes = 0;
  /// Pushes refused by a child's full pending queue
  /// (base.capacity.queue_limit); recoverable like shed pushes.
  std::uint64_t queue_drops = 0;
};

/// Runs lossy dissemination over a (typically converged) overlay.
/// Items published in the final max-staleness window are excluded from
/// the expected-delivery accounting (they may legitimately still be in
/// flight at the horizon). The source must be pull-only
/// (`base.push_source` off): repair never serves its direct children.
LossyReport run_lossy_dissemination(const Overlay& overlay,
                                    const LossyConfig& config,
                                    SimTime duration);

}  // namespace lagover::feed
