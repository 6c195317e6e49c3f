// Byzantine adversary models (ROADMAP "meaner worlds"): node classes
// that *lie* instead of merely crashing. The paper's convergence results
// assume every node reports DelayAt, free fanout, and liveness honestly;
// this layer breaks each assumption separately:
//
//   delay-liars   understate DelayAt to the Oracle and in protocol
//                 admission checks, attracting children whose true delay
//                 then violates their latency bound;
//   fanout-liars  advertise free capacity but reject every attach
//                 request that reaches them (wasted interactions);
//   free-riders   accept children but never relay feed items;
//   flappers      oscillate on/off on a fixed duty cycle, churning
//                 their subtree with them.
//
// Role assignment is a deterministic per-node hash of the spec's salt —
// no RNG stream is consumed, and an empty spec assigns every node
// kHonest, so installing an empty AdversaryBook leaves engines
// byte-identical to an adversary-free run (engines normalize an empty
// book away entirely).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/oracle.hpp"
#include "core/overlay.hpp"
#include "core/types.hpp"
#include "sim/simulator.hpp"

namespace lagover::fault {

enum class AdversaryClass {
  kHonest,
  kDelayLiar,
  kFanoutLiar,
  kFreeRider,
  kFlapper,
};

/// Stable lower_snake name ("honest", "delay_liar", ...).
const char* to_string(AdversaryClass cls) noexcept;

/// Declarative adversary mix. Fractions are of the consumer population
/// (node 0, the source, is always honest); they are cumulative class
/// buckets over a per-node uniform hash, so they must sum to <= 1.
struct ByzantineSpec {
  double delay_liar_fraction = 0.0;
  double fanout_liar_fraction = 0.0;
  double free_rider_fraction = 0.0;
  double flapper_fraction = 0.0;
  /// Delay-liars claim max(1, DelayAt - understatement).
  Delay delay_understatement = 2;
  /// Flappers cycle with this period, online for the first
  /// flap_duty fraction of it (per-node phase offsets desynchronize).
  double flap_period = 30.0;
  double flap_duty = 0.5;
  /// Salts the role-assignment hash: different salts, different liars.
  std::uint64_t salt = 0xb12a5;

  /// True when no adversary class has a positive fraction.
  bool empty() const noexcept {
    return delay_liar_fraction <= 0.0 && fanout_liar_fraction <= 0.0 &&
           free_rider_fraction <= 0.0 && flapper_fraction <= 0.0;
  }
};

/// Materialized role table: the spec hashed over a concrete population.
/// Shared (const) between the engine, the Oracle, and the feed layer.
class AdversaryBook {
 public:
  AdversaryBook(ByzantineSpec spec, std::size_t node_count);

  const ByzantineSpec& spec() const noexcept { return spec_; }
  std::size_t node_count() const noexcept { return role_.size(); }

  AdversaryClass role(NodeId id) const;
  std::size_t count(AdversaryClass cls) const;

  /// True when the book assigns no adversarial role at all — engines
  /// normalize such a book to "no adversary layer installed".
  bool empty() const noexcept { return adversaries_ == 0; }

  /// What `id` tells peers its delay is (truth unless a delay-liar).
  Delay claimed_delay(NodeId id, Delay true_delay) const;

  /// What `id` advertises as free fanout (fanout-liars always claim at
  /// least one free slot).
  int claimed_free_fanout(NodeId id, int true_free) const;

  /// Does `id` reject an attach request despite advertising capacity?
  bool rejects_child(NodeId id) const {
    return role(id) == AdversaryClass::kFanoutLiar;
  }

  /// Does `id` swallow feed items instead of relaying them?
  bool withholds_feed(NodeId id) const {
    return role(id) == AdversaryClass::kFreeRider;
  }

  /// Is flapper `id` in the down phase of its duty cycle at `now`?
  bool flapping_down(NodeId id, SimTime now) const;

  /// Time from `now` until flapper `id` comes back up (0 when up).
  double flap_remaining(NodeId id, SimTime now) const;

 private:
  ByzantineSpec spec_;
  std::vector<AdversaryClass> role_;
  std::vector<double> flap_phase_;  ///< per-flapper phase offset
  std::size_t adversaries_ = 0;
};

/// Directory Oracle over *claimed* values: candidates are filtered by
/// what they advertise (claimed delay / claimed free fanout), not the
/// overlay's ground truth — the paper's idealized Oracle has no way to
/// audit reports. With defenses on, the owning engine installs
///
///   * a barred() predicate (quarantined/blacklisted nodes are skipped),
///   * the plausibility filter: a connected candidate claiming a delay
///     below its own parent's claim + 1 is structurally impossible —
///     it is skipped and reported to the suspicion book. Colluding
///     liar *chains* evade this check (each link is self-consistent);
///     they are caught by child-side delay verification instead.
///
/// It stays a scan over the membership, not a draw from the overlay's
/// candidate index as DirectoryOracle is: the index files each node
/// under its true delay and free fanout, while each liar claims its own
/// values, and the barred set and the plausibility filter change with
/// the suspicion book. It keeps a reservoir-of-one, one RNG draw per
/// candidate that passes its claim filter.
class ByzantineOracle final : public Oracle {
 public:
  ByzantineOracle(OracleKind kind, std::shared_ptr<const AdversaryBook> book);

  OracleKind kind() const noexcept override { return kind_; }

  void set_barred(std::function<bool(NodeId)> barred) {
    barred_ = std::move(barred);
  }
  void set_plausibility_reporter(
      std::function<void(NodeId suspect, const char* cause)> reporter) {
    reporter_ = std::move(reporter);
  }
  void enable_plausibility_filter(bool on) noexcept { plausibility_ = on; }

  std::uint64_t barred_skips() const noexcept { return barred_skips_; }
  std::uint64_t implausible_skips() const noexcept {
    return implausible_skips_;
  }

 protected:
  std::optional<NodeId> sample_impl(NodeId querier, const Overlay& overlay,
                                    Rng& rng) override;

 private:
  bool eligible_claimed(NodeId querier, NodeId candidate,
                        const Overlay& overlay);

  OracleKind kind_;
  std::shared_ptr<const AdversaryBook> book_;
  std::function<bool(NodeId)> barred_;
  std::function<void(NodeId, const char*)> reporter_;
  bool plausibility_ = false;
  std::uint64_t barred_skips_ = 0;
  std::uint64_t implausible_skips_ = 0;
};

}  // namespace lagover::fault
