// Tests for the four directory Oracles' filtering semantics and
// statistics, and the indexed Oracle's sample frequencies against the
// scan reference's candidate sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/oracle.hpp"
#include "core/sufficiency.hpp"
#include "scan_oracle.hpp"
#include "workload/constraints.hpp"

namespace lagover {
namespace {

Population population() {
  Population p;
  p.source_fanout = 2;
  p.consumers = {
      NodeSpec{1, Constraints{1, 1}},  // will sit at the source
      NodeSpec{2, Constraints{0, 3}},  // zero fanout
      NodeSpec{3, Constraints{2, 5}},  // free fanout, deep
      NodeSpec{4, Constraints{1, 2}},
  };
  return p;
}

TEST(OracleTest, RandomReturnsAnyOtherConsumer) {
  Overlay overlay(population());
  auto oracle = make_oracle(OracleKind::kRandom);
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const auto sample = oracle->sample(4, overlay, rng);
    ASSERT_TRUE(sample.has_value());
    EXPECT_NE(*sample, 4u);
    EXPECT_NE(*sample, kSourceId);
  }
  EXPECT_EQ(oracle->stats().queries, 50u);
  EXPECT_EQ(oracle->stats().empty_results, 0u);
}

TEST(OracleTest, RandomCapacityFiltersSaturatedNodes) {
  Overlay overlay(population());
  overlay.attach(1, kSourceId);
  overlay.attach(4, 1);  // node 1 now saturated (fanout 1)
  auto oracle = make_oracle(OracleKind::kRandomCapacity);
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const auto sample = oracle->sample(2, overlay, rng);
    ASSERT_TRUE(sample.has_value());
    // Only nodes 3 (fanout 2, unused) and 4 (fanout 1, unused) qualify.
    EXPECT_TRUE(*sample == 3u || *sample == 4u);
  }
}

TEST(OracleTest, RandomDelayFiltersByQuerierConstraint) {
  Overlay overlay(population());
  overlay.attach(1, kSourceId);  // delay 1
  overlay.attach(4, 1);          // delay 2
  auto oracle = make_oracle(OracleKind::kRandomDelay);
  Rng rng(3);
  // Querier 4 has l = 2: only nodes with delay < 2 qualify; detached
  // nodes 2 and 3 report optimistic delay 1 and also qualify.
  for (int i = 0; i < 50; ++i) {
    const auto sample = oracle->sample(4, overlay, rng);
    ASSERT_TRUE(sample.has_value());
    EXPECT_LT(overlay.delay_at(*sample), 2);
  }
}

TEST(OracleTest, RandomDelayIgnoresCapacity) {
  Overlay overlay(population());
  overlay.attach(1, kSourceId);
  overlay.attach(4, 1);  // node 1 saturated but delay 1
  auto oracle = make_oracle(OracleKind::kRandomDelay);
  Rng rng(4);
  bool saw_saturated = false;
  for (int i = 0; i < 100; ++i) {
    const auto sample = oracle->sample(2, overlay, rng);
    ASSERT_TRUE(sample.has_value());
    if (*sample == 1u) saw_saturated = true;
  }
  EXPECT_TRUE(saw_saturated);  // the key property behind the paper's O3
}

TEST(OracleTest, RandomDelayCapacityRequiresBoth) {
  Overlay overlay(population());
  overlay.attach(1, kSourceId);
  overlay.attach(4, 1);
  auto oracle = make_oracle(OracleKind::kRandomDelayCapacity);
  Rng rng(5);
  // Querier 4 (l=2): needs delay < 2 AND free fanout. Node 1 is
  // saturated; nodes 2 (fanout 0) fails capacity; node 3 qualifies
  // (optimistic delay 1, fanout free).
  for (int i = 0; i < 50; ++i) {
    const auto sample = oracle->sample(4, overlay, rng);
    ASSERT_TRUE(sample.has_value());
    EXPECT_EQ(*sample, 3u);
  }
}

TEST(OracleTest, EmptyResultWhenNoCandidateQualifies) {
  Overlay overlay(population());
  auto oracle = make_oracle(OracleKind::kRandomDelay);
  Rng rng(6);
  // Querier 1 has l = 1: no node can have delay < 1.
  const auto sample = oracle->sample(1, overlay, rng);
  EXPECT_FALSE(sample.has_value());
  EXPECT_EQ(oracle->stats().empty_results, 1u);
}

TEST(OracleTest, OfflineNodesNeverSampled) {
  Overlay overlay(population());
  overlay.set_offline(2);
  overlay.set_offline(3);
  auto oracle = make_oracle(OracleKind::kRandom);
  Rng rng(7);
  for (int i = 0; i < 30; ++i) {
    const auto sample = oracle->sample(1, overlay, rng);
    ASSERT_TRUE(sample.has_value());
    EXPECT_EQ(*sample, 4u);
  }
}

TEST(OracleTest, SamplingIsApproximatelyUniform) {
  Overlay overlay(population());
  auto oracle = make_oracle(OracleKind::kRandom);
  Rng rng(8);
  std::vector<int> counts(5, 0);
  constexpr int kTrials = 30000;
  for (int i = 0; i < kTrials; ++i) {
    const auto sample = oracle->sample(4, overlay, rng);
    ASSERT_TRUE(sample.has_value());
    ++counts[*sample];
  }
  // Candidates 1, 2, 3 each ~1/3.
  for (NodeId id = 1; id <= 3; ++id)
    EXPECT_NEAR(counts[id] / static_cast<double>(kTrials), 1.0 / 3.0, 0.02);
  EXPECT_EQ(counts[4], 0);
}

// --- the index's size: an l read from input does not set it -------------

/// For every kind and every consumer as querier, the index offers
/// exactly the scan's set.
void expect_every_querier_matches_scan(const Overlay& overlay,
                                       const std::string& where) {
  for (const OracleKind kind :
       {OracleKind::kRandom, OracleKind::kRandomCapacity,
        OracleKind::kRandomDelayCapacity, OracleKind::kRandomDelay})
    for (NodeId querier = 1; querier < overlay.node_count(); ++querier) {
      const DirectoryOracle::Candidates offered =
          DirectoryOracle::candidates(kind, querier, overlay);
      std::vector<NodeId> indexed;
      for (std::size_t i = 0; i < offered.size; ++i)
        indexed.push_back(offered[i]);
      std::sort(indexed.begin(), indexed.end());
      ASSERT_EQ(indexed, reference::eligible_scan(kind, querier, overlay))
          << where << " " << paper_label(kind) << " querier " << querier;
    }
}

TEST(OracleIndexTest, HugeLatencyDoesNotSizeTheIndex) {
  // A population file may give any positive l: the index keeps one
  // level per consumer at most, since no delay exceeds their count. (An
  // index sized by this l would take 128 MiB and fail the first check.)
  Population p;
  p.source_fanout = 1;
  p.consumers = {
      NodeSpec{1, Constraints{1, Delay{1} << 24}},
      NodeSpec{2, Constraints{1, 2}},
      NodeSpec{3, Constraints{0, 3}},
  };
  Overlay overlay(p);
  EXPECT_EQ(overlay.delay_levels(), 3);
  expect_every_querier_matches_scan(overlay, "fresh");
  // A chain down to the deepest delay three consumers allow.
  overlay.attach(2, kSourceId);
  overlay.attach(1, 2);
  overlay.attach(3, 1);
  ASSERT_EQ(overlay.delay_at(3), 3);
  overlay.audit();
  expect_every_querier_matches_scan(overlay, "chain");
  overlay.detach(1);
  overlay.set_offline(2);
  overlay.audit();
  expect_every_querier_matches_scan(overlay, "cut");
  // Querier 1 admits every delay: under O3 it draws node 3, the only
  // other online consumer.
  DirectoryOracle oracle(OracleKind::kRandomDelay);
  Rng rng(9);
  EXPECT_EQ(oracle.sample(1, overlay, rng), std::optional<NodeId>(3));
}

TEST(OracleIndexTest, MaxLatencyFarAbovePeers) {
  WorkloadParams params;
  params.peers = 120;
  params.max_latency = 1 << 20;
  params.seed = 5;
  Overlay overlay(generate_workload(WorkloadKind::kRand, params));
  EXPECT_LE(overlay.delay_levels(), 120);
  expect_every_querier_matches_scan(overlay, "fresh");
  // Chain every consumer with fanout below the source in id order, and
  // hang the rest from the chain's end while its fanout lasts.
  NodeId tail = kSourceId;
  for (NodeId id = 1; id < overlay.node_count(); ++id) {
    if (overlay.fanout_of(id) == 0) continue;
    overlay.attach(id, tail);
    tail = id;
  }
  for (NodeId id = 1; id < overlay.node_count(); ++id)
    if (overlay.can_attach(id, tail)) overlay.attach(id, tail);
  overlay.audit();
  EXPECT_GT(overlay.delay_at(tail), 90);
  expect_every_querier_matches_scan(overlay, "chain");
  // Cut the chain at every tenth link and take every ninth node offline.
  for (NodeId id = 1; id < overlay.node_count(); ++id) {
    if (id % 10 == 0 && overlay.has_parent(id)) overlay.detach(id);
    if (id % 9 == 0) overlay.set_offline(id);
  }
  overlay.audit();
  expect_every_querier_matches_scan(overlay, "cut");
}

// --- sample frequencies against the scan's candidate sets ---------------

/// P(X >= x) for X chi-square with `df` degrees of freedom: Q(df/2, x/2),
/// the regularized upper incomplete gamma function (its series below
/// a + 1, Lentz's continued fraction above).
double chi_square_upper_tail(double x, int df) {
  const double a = df / 2.0;
  const double z = x / 2.0;
  if (z <= 0.0) return 1.0;
  const double prefix = std::exp(-z + a * std::log(z) - std::lgamma(a));
  if (z < a + 1.0) {
    double term = 1.0 / a;
    double sum = term;
    for (int n = 1; n < 10000 && term > sum * 1e-15; ++n) {
      term *= z / (a + n);
      sum += term;
    }
    return 1.0 - prefix * sum;
  }
  constexpr double kTiny = 1e-300;
  double b = z + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 10000; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    if (std::fabs(d * c - 1.0) < 1e-15) break;
  }
  return prefix * h;
}

TEST(OracleUniformityTest, ChiSquareTailMatchesTables) {
  // The 0.001 critical values of chi-square tables; df 2 is exact.
  EXPECT_NEAR(chi_square_upper_tail(10.828, 1), 0.001, 2e-6);
  EXPECT_NEAR(chi_square_upper_tail(2.0 * std::log(1000.0), 2), 0.001, 1e-12);
  EXPECT_NEAR(chi_square_upper_tail(29.588, 10), 0.001, 2e-6);
  EXPECT_NEAR(chi_square_upper_tail(9.342, 10), 0.5, 1e-3);
}

/// Two fixed overlays over one Rand population, built without an
/// Oracle: a witness tree in which every consumer is satisfied, and a
/// half-built one taken from it by cutting every third consumer loose
/// and taking every seventh offline.
std::map<std::string, Overlay> fixed_overlays() {
  WorkloadParams params;
  params.peers = 80;
  params.seed = 3;
  const Population population = generate_workload(WorkloadKind::kRand, params);
  const auto depths = feasible_depths(population);
  EXPECT_TRUE(depths.has_value());
  Overlay converged = build_witness_overlay(population, *depths);
  EXPECT_TRUE(converged.all_satisfied());
  Overlay half = converged;
  for (NodeId id = 1; id < half.node_count(); ++id) {
    if (id % 3 == 0 && half.has_parent(id)) half.detach(id);
    if (id % 7 == 0) half.set_offline(id);
  }
  half.audit();
  return {{"converged", converged}, {"half-built", half}};
}

// For each overlay, kind and every fifth consumer as querier with at
// least two candidates, 40 draws per candidate must fit uniform over
// the scan's set; each test at a Bonferroni-corrected p < 0.001.
TEST(OracleUniformityTest, SamplesAreUniformOverTheScansSet) {
  const std::map<std::string, Overlay> overlays = fixed_overlays();
  struct Cell {
    std::string where;
    std::vector<NodeId> set;
    std::map<NodeId, int> counts;
    int draws = 0;
  };
  std::vector<Cell> cells;
  Rng rng(99);
  for (const auto& [name, overlay] : overlays)
    for (const OracleKind kind :
         {OracleKind::kRandom, OracleKind::kRandomCapacity,
          OracleKind::kRandomDelayCapacity, OracleKind::kRandomDelay}) {
      DirectoryOracle oracle(kind);
      for (NodeId querier = 1; querier < overlay.node_count(); querier += 5) {
        Cell cell;
        cell.where = name + " " + paper_label(kind) + " querier " +
                     std::to_string(querier);
        cell.set = reference::eligible_scan(kind, querier, overlay);
        if (cell.set.size() < 2) continue;
        cell.draws = 40 * static_cast<int>(cell.set.size());
        for (int i = 0; i < cell.draws; ++i) {
          const auto sample = oracle.sample(querier, overlay, rng);
          ASSERT_TRUE(sample.has_value()) << cell.where;
          ++cell.counts[*sample];
        }
        cells.push_back(std::move(cell));
      }
    }
  // Every kind on both overlays contributes cells.
  ASSERT_GE(cells.size(), 40u);
  const double alpha = 0.001 / static_cast<double>(cells.size());
  for (const Cell& cell : cells) {
    const double expected =
        static_cast<double>(cell.draws) / static_cast<double>(cell.set.size());
    double statistic = 0.0;
    int covered = 0;
    for (const NodeId id : cell.set) {
      const auto it = cell.counts.find(id);
      const double observed = it == cell.counts.end() ? 0.0 : it->second;
      if (it != cell.counts.end()) covered += it->second;
      statistic += (observed - expected) * (observed - expected) / expected;
    }
    EXPECT_EQ(covered, cell.draws) << cell.where << ": a sample left the set";
    const int df = static_cast<int>(cell.set.size()) - 1;
    EXPECT_GT(chi_square_upper_tail(statistic, df), alpha)
        << cell.where << ": chi-square " << statistic << " on " << df
        << " df";
  }
}

TEST(OracleTest, PaperLabels) {
  EXPECT_EQ(paper_label(OracleKind::kRandom), "O1");
  EXPECT_EQ(paper_label(OracleKind::kRandomCapacity), "O2a");
  EXPECT_EQ(paper_label(OracleKind::kRandomDelayCapacity), "O2b");
  EXPECT_EQ(paper_label(OracleKind::kRandomDelay), "O3");
}

}  // namespace
}  // namespace lagover
