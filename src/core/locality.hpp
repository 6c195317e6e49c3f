// Locality-aware LagOver construction — the paper's Section 7 future
// work: "building the LagOver based on locality contexts, like clients
// within same domain, ISP or timezone forming the overlay may
// substantially improve the global performance and resource usage".
//
// Consumers carry a locality label (domain / ISP / timezone bucket).
// LocalityBiasedOracle wraps any base Oracle: with probability `bias`
// it restricts the base oracle's filter to same-locality candidates
// (falling back to the unrestricted sample when none qualifies). The
// result is a LagOver whose edges mostly stay inside a locality, which
// the cross-edge metric quantifies.
//
// It stays a scan over the membership: the overlay's candidate index
// segments nodes by delay level and free fanout only, and a locality
// label cuts across every segment, so the restricted filter maps to no
// union of them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/oracle.hpp"
#include "core/overlay.hpp"

namespace lagover {

/// Locality label per consumer (index = NodeId; [0] unused). Labels are
/// opaque bucket ids (e.g. ISP index).
using LocalityMap = std::vector<int>;

/// Assigns `buckets` localities uniformly at random to n consumers.
LocalityMap random_localities(std::size_t consumer_count, int buckets,
                              std::uint64_t seed);

/// Oracle decorator biasing samples toward the querier's locality.
class LocalityBiasedOracle final : public Oracle {
 public:
  /// `bias` in [0, 1]: probability that a query is restricted to the
  /// querier's locality. bias = 0 behaves exactly like the base kind.
  LocalityBiasedOracle(OracleKind base, LocalityMap localities, double bias);

  OracleKind kind() const noexcept override { return base_; }

  std::uint64_t local_samples() const noexcept { return local_samples_; }
  std::uint64_t global_samples() const noexcept { return global_samples_; }

 protected:
  std::optional<NodeId> sample_impl(NodeId querier, const Overlay& overlay,
                                    Rng& rng) override;

 private:
  OracleKind base_;
  LocalityMap localities_;
  double bias_;
  std::uint64_t local_samples_ = 0;
  std::uint64_t global_samples_ = 0;
};

/// Locality quality of a (typically converged) overlay.
struct LocalityMetrics {
  std::size_t edges = 0;        ///< consumer->consumer edges (source excluded)
  std::size_t cross_edges = 0;  ///< edges whose endpoints differ in locality
  double cross_fraction = 0.0;
};

LocalityMetrics compute_locality_metrics(const Overlay& overlay,
                                         const LocalityMap& localities);

}  // namespace lagover
