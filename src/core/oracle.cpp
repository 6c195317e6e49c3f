#include "core/oracle.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace lagover {

namespace {

/// eligible() without the querier's exclusion: does `candidate` pass
/// `kind`'s filter for a querier whose delay constraint is `latency`?
bool passes(OracleKind kind, Delay latency, NodeId candidate,
            const Overlay& overlay) {
  if (candidate == kSourceId || !overlay.online(candidate)) return false;
  switch (kind) {
    case OracleKind::kRandom:
      return true;
    case OracleKind::kRandomCapacity:
      return overlay.free_fanout(candidate) > 0;
    case OracleKind::kRandomDelayCapacity:
      return overlay.free_fanout(candidate) > 0 &&
             overlay.delay_at(candidate) < latency;
    case OracleKind::kRandomDelay:
      return overlay.delay_at(candidate) < latency;
  }
  return false;
}

}  // namespace

bool DirectoryOracle::eligible(OracleKind kind, NodeId querier,
                               NodeId candidate, const Overlay& overlay) {
  return candidate != querier &&
         passes(kind, overlay.latency_of(querier), candidate, overlay);
}

DirectoryOracle::Candidates DirectoryOracle::candidates(
    OracleKind kind, NodeId querier, const Overlay& overlay) {
  const Delay latency = overlay.latency_of(querier);
  const bool by_delay = kind == OracleKind::kRandomDelay ||
                        kind == OracleKind::kRandomDelayCapacity;
  const bool free_only = kind == OracleKind::kRandomCapacity ||
                         kind == OracleKind::kRandomDelayCapacity;
  // A delay below l lies on a level below l. Levels below
  // delay_levels() hold exact delays; when l - 1 reaches the last level,
  // every delay (at most consumer_count()) is below l.
  const Delay levels = by_delay
                           ? std::min(latency - 1, overlay.delay_levels())
                           : overlay.delay_levels();
  std::size_t size = overlay.count_on_levels(levels, free_only);
  // The querier sits in those segments exactly when it passes its own
  // filter; the view leaves it out.
  if (passes(kind, latency, querier, overlay)) --size;
  return Candidates{&overlay, querier, levels, free_only, size};
}

NodeId DirectoryOracle::Candidates::operator[](std::size_t k) const {
  LAGOVER_EXPECTS(k < size);
  const NodeId id = overlay->nth_on_levels(k, levels, free_only);
  // With the querier among the segments the view is one slot shorter
  // than they are: the querier's slot stands for the last one, which no
  // k reaches.
  return id == querier ? overlay->nth_on_levels(size, levels, free_only) : id;
}

std::optional<NodeId> DirectoryOracle::sample_impl(NodeId querier,
                                                   const Overlay& overlay,
                                                   Rng& rng) {
  const Candidates offered = candidates(kind_, querier, overlay);
  if (offered.size == 0) return std::nullopt;
  return offered[rng.next_below(offered.size)];
}

std::unique_ptr<Oracle> make_oracle(OracleKind kind) {
  return std::make_unique<DirectoryOracle>(kind);
}

}  // namespace lagover
