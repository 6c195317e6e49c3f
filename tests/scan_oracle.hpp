// Reference Oracle for tests: the membership scan that DirectoryOracle's
// candidate index replaced. It visits every node and keeps a
// reservoir-of-one over the nodes DirectoryOracle::eligible admits, one
// RNG draw per eligible node. Slow, but simple enough to trust: tests
// compare the index's candidate sets against its scan and the indexed
// Oracle's sample and run distributions against its own.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/oracle.hpp"

namespace lagover::reference {

/// The nodes DirectoryOracle::eligible admits for `querier`, in id order.
inline std::vector<NodeId> eligible_scan(OracleKind kind, NodeId querier,
                                         const Overlay& overlay) {
  std::vector<NodeId> out;
  for (NodeId id = 1; id < overlay.node_count(); ++id)
    if (DirectoryOracle::eligible(kind, querier, id, overlay))
      out.push_back(id);
  return out;
}

class ScanOracle final : public Oracle {
 public:
  explicit ScanOracle(OracleKind kind) : kind_(kind) {}

  OracleKind kind() const noexcept override { return kind_; }

 private:
  std::optional<NodeId> sample_impl(NodeId querier, const Overlay& overlay,
                                    Rng& rng) override {
    std::optional<NodeId> chosen;
    std::uint64_t seen = 0;
    for (NodeId id = 1; id < overlay.node_count(); ++id) {
      if (!DirectoryOracle::eligible(kind_, querier, id, overlay)) continue;
      ++seen;
      if (rng.next_below(seen) == 0) chosen = id;
    }
    return chosen;
  }

  OracleKind kind_;
};

}  // namespace lagover::reference
