// The Oracles of Section 2.1.4: partial-global-information services that
// hand an enquiring node a random interaction partner. The paper's
// evaluation (Section 5.2) compares four filters; the abstract interface
// here is what the construction engine consumes, and src/dht + src/gossip
// provide distributed realizations of the same interface.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "common/rng.hpp"
#include "core/overlay.hpp"
#include "core/types.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"

namespace lagover {

/// Statistics every oracle keeps so experiments can report how often the
/// oracle failed to find any suitable partner (the Algorithm 2 step-13
/// exception — a key effect behind O2a/O2b's poor convergence).
struct OracleStats {
  std::uint64_t queries = 0;
  std::uint64_t empty_results = 0;
};

/// Interface: given the querying node and the current overlay, return a
/// random partner satisfying the oracle's filter, or nullopt when no
/// node qualifies ("the peer needs to wait and try again").
class Oracle {
 public:
  virtual ~Oracle() = default;

  std::optional<NodeId> sample(NodeId querier, const Overlay& overlay,
                               Rng& rng) {
    TELEM_SCOPE("oracle.sample");
    ++stats_.queries;
    TELEM_COUNT("oracle.queries", 1);
    auto result = sample_impl(querier, overlay, rng);
    if (!result.has_value()) {
      ++stats_.empty_results;
      TELEM_COUNT("oracle.empty_results", 1);
    }
    return result;
  }

  const OracleStats& stats() const noexcept { return stats_; }
  virtual OracleKind kind() const noexcept = 0;

 protected:
  virtual std::optional<NodeId> sample_impl(NodeId querier,
                                            const Overlay& overlay,
                                            Rng& rng) = 0;

 private:
  OracleStats stats_;
};

/// Centralized (directory-style) oracle: hands the querier a partner
/// drawn uniformly among the nodes passing the configured filter. This
/// is the idealized oracle the paper simulates; it is also the
/// behaviour the DHT-backed directory converges to.
///
/// It draws from the overlay's candidate index rather than scanning the
/// membership: every filter is a union of (delay level, free fanout)
/// segments. O1 takes every level and O3 the levels below the querier's
/// l, each one prefix of the index; O2a and O2b take the free-fanout
/// segment of each of those levels. A sample adds up at most
/// delay_levels() segment sizes (no more than the consumer count),
/// leaves out the querier, and makes one next_below draw.
class DirectoryOracle final : public Oracle {
 public:
  explicit DirectoryOracle(OracleKind kind) : kind_(kind) {}

  OracleKind kind() const noexcept override { return kind_; }

  /// The filter predicate, exposed for reuse by distributed realizations:
  /// does `candidate` qualify as a partner for `querier` under `kind`?
  /// Candidates must be online consumers distinct from the querier; the
  /// source is never returned (source contact is the timeout path).
  static bool eligible(OracleKind kind, NodeId querier, NodeId candidate,
                       const Overlay& overlay);

  /// The partners a sample draws from, as a view of the overlay's
  /// candidate index: exactly the nodes eligible() admits, each once.
  /// Valid until the overlay next changes.
  struct Candidates {
    const Overlay* overlay;
    NodeId querier;
    Delay levels;      ///< delay levels 1..levels pass the filter,
    bool free_only;    ///< only their free-fanout segments if set
    std::size_t size;  ///< partners offered: the querier is left out

    /// The k-th partner, k < size.
    NodeId operator[](std::size_t k) const;
  };
  static Candidates candidates(OracleKind kind, NodeId querier,
                               const Overlay& overlay);

 private:
  std::optional<NodeId> sample_impl(NodeId querier, const Overlay& overlay,
                                    Rng& rng) override;

  OracleKind kind_;
};

/// Factory for the centralized oracle variants.
std::unique_ptr<Oracle> make_oracle(OracleKind kind);

}  // namespace lagover
