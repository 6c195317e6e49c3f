#include "fault/byzantine.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace lagover::fault {

const char* to_string(AdversaryClass cls) noexcept {
  switch (cls) {
    case AdversaryClass::kHonest: return "honest";
    case AdversaryClass::kDelayLiar: return "delay_liar";
    case AdversaryClass::kFanoutLiar: return "fanout_liar";
    case AdversaryClass::kFreeRider: return "free_rider";
    case AdversaryClass::kFlapper: return "flapper";
  }
  return "unknown";
}

namespace {

/// Unit-interval hash of (salt, node): deterministic, order-free, and
/// independent of every engine RNG stream.
double unit_hash(std::uint64_t salt, std::uint64_t node,
                 std::uint64_t stream) {
  SplitMix64 sm{salt ^ (node * 0x9e3779b97f4a7c15ULL) ^
                (stream << 48)};
  // 53 high bits -> [0, 1) exactly as Rng::uniform_real does.
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

}  // namespace

AdversaryBook::AdversaryBook(ByzantineSpec spec, std::size_t node_count)
    : spec_(spec) {
  LAGOVER_EXPECTS(spec.delay_liar_fraction >= 0.0 &&
                  spec.fanout_liar_fraction >= 0.0 &&
                  spec.free_rider_fraction >= 0.0 &&
                  spec.flapper_fraction >= 0.0);
  LAGOVER_EXPECTS(spec.delay_liar_fraction + spec.fanout_liar_fraction +
                      spec.free_rider_fraction + spec.flapper_fraction <=
                  1.0 + 1e-12);
  LAGOVER_EXPECTS(spec.delay_understatement >= 1);
  LAGOVER_EXPECTS(spec.flap_period > 0.0);
  LAGOVER_EXPECTS(spec.flap_duty > 0.0 && spec.flap_duty < 1.0);
  role_.assign(node_count, AdversaryClass::kHonest);
  flap_phase_.assign(node_count, 0.0);
  for (NodeId id = 1; id < node_count; ++id) {
    const double u = unit_hash(spec.salt, id, 1);
    double edge = spec.delay_liar_fraction;
    if (u < edge) {
      role_[id] = AdversaryClass::kDelayLiar;
    } else if (u < (edge += spec.fanout_liar_fraction)) {
      role_[id] = AdversaryClass::kFanoutLiar;
    } else if (u < (edge += spec.free_rider_fraction)) {
      role_[id] = AdversaryClass::kFreeRider;
    } else if (u < (edge += spec.flapper_fraction)) {
      role_[id] = AdversaryClass::kFlapper;
      flap_phase_[id] = unit_hash(spec.salt, id, 2) * spec.flap_period;
    }
    if (role_[id] != AdversaryClass::kHonest) ++adversaries_;
  }
}

AdversaryClass AdversaryBook::role(NodeId id) const {
  if (id >= role_.size()) return AdversaryClass::kHonest;
  return role_[id];
}

std::size_t AdversaryBook::count(AdversaryClass cls) const {
  return static_cast<std::size_t>(
      std::count(role_.begin(), role_.end(), cls));
}

Delay AdversaryBook::claimed_delay(NodeId id, Delay true_delay) const {
  if (role(id) != AdversaryClass::kDelayLiar) return true_delay;
  return std::max<Delay>(1, true_delay - spec_.delay_understatement);
}

int AdversaryBook::claimed_free_fanout(NodeId id, int true_free) const {
  if (role(id) != AdversaryClass::kFanoutLiar) return true_free;
  return std::max(true_free, 1);
}

bool AdversaryBook::flapping_down(NodeId id, SimTime now) const {
  if (role(id) != AdversaryClass::kFlapper) return false;
  const double pos =
      std::fmod(now + flap_phase_[id], spec_.flap_period);
  return pos >= spec_.flap_duty * spec_.flap_period;
}

double AdversaryBook::flap_remaining(NodeId id, SimTime now) const {
  if (!flapping_down(id, now)) return 0.0;
  const double pos =
      std::fmod(now + flap_phase_[id], spec_.flap_period);
  return spec_.flap_period - pos;
}

ByzantineOracle::ByzantineOracle(OracleKind kind,
                                 std::shared_ptr<const AdversaryBook> book)
    : kind_(kind), book_(std::move(book)) {
  LAGOVER_EXPECTS(book_ != nullptr);
}

bool ByzantineOracle::eligible_claimed(NodeId querier, NodeId candidate,
                                       const Overlay& overlay) {
  if (candidate == querier || candidate == kSourceId) return false;
  if (!overlay.online(candidate)) return false;
  if (barred_ && barred_(candidate)) {
    ++barred_skips_;
    return false;
  }
  const Delay claimed =
      book_->claimed_delay(candidate, overlay.delay_at(candidate));
  // Plausibility filter (defense): a connected candidate is at least one
  // hop deeper than its parent, so its claim must be >= the parent's
  // claim + 1. A claim below that bound is structurally impossible;
  // skip the candidate and report it. (A chain of colluding liars is
  // internally consistent and passes — documented limitation.)
  if (plausibility_ && overlay.connected(candidate)) {
    const NodeId parent = overlay.parent(candidate);
    const Delay floor =
        parent == kSourceId
            ? 1
            : book_->claimed_delay(parent, overlay.delay_at(parent)) + 1;
    if (claimed < floor) {
      ++implausible_skips_;
      if (reporter_) reporter_(candidate, "implausible_delay");
      return false;
    }
  }
  switch (kind_) {
    case OracleKind::kRandom:
      return true;
    case OracleKind::kRandomCapacity:
      return book_->claimed_free_fanout(candidate,
                                        overlay.free_fanout(candidate)) > 0;
    case OracleKind::kRandomDelayCapacity:
      return book_->claimed_free_fanout(candidate,
                                        overlay.free_fanout(candidate)) > 0 &&
             claimed < overlay.latency_of(querier);
    case OracleKind::kRandomDelay:
      return claimed < overlay.latency_of(querier);
  }
  return false;
}

std::optional<NodeId> ByzantineOracle::sample_impl(NodeId querier,
                                                   const Overlay& overlay,
                                                   Rng& rng) {
  // Reservoir-of-one over claim-eligible candidates. Claims are per
  // node, so no segment of the overlay's candidate index holds them:
  // this stays a scan (see the class comment), and its RNG sequence is
  // not DirectoryOracle's even for an all-honest book.
  std::optional<NodeId> chosen;
  std::uint64_t seen = 0;
  for (NodeId id = 1; id < overlay.node_count(); ++id) {
    if (!eligible_claimed(querier, id, overlay)) continue;
    ++seen;
    if (rng.next_below(seen) == 0) chosen = id;
  }
  return chosen;
}

}  // namespace lagover::fault
