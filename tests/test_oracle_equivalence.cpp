// The indexed DirectoryOracle against the scan it replaced, end to end:
// fig3's grid (four workloads x four Oracles, greedy, 120 peers) run once
// with the engine's own Oracle and once with the scan reference set
// through Engine::set_oracle. Both draw uniformly over the same
// candidates, but from different RNG streams, so the runs differ trial
// by trial; the grid must agree in distribution. A cell that converges
// on no trial must do so on both sides, and every other cell's median
// rounds must be indistinguishable by a two-sample bootstrap CI at a
// family-wise 1% level.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "scan_oracle.hpp"
#include "stats/bootstrap.hpp"
#include "workload/constraints.hpp"

namespace lagover {
namespace {

// Fixed before the first run and never changed since: run_experiment's
// trial seeds (base 1, stride 7919) for ten trials per cell and side.
constexpr std::uint64_t kSeeds[] = {1,     7920,  15839, 23758, 31677,
                                    39596, 47515, 55434, 63353, 71272};
constexpr std::size_t kPeers = 120;
/// fig3's own cap: enough for every converging Tf1 trial, and short
/// enough for the sanitizer build.
constexpr Round kMaxRounds = 3000;

constexpr OracleKind kOracles[] = {
    OracleKind::kRandom, OracleKind::kRandomCapacity,
    OracleKind::kRandomDelayCapacity, OracleKind::kRandomDelay};

/// Convergence rounds of the trials that converged.
std::vector<double> run_cell(WorkloadKind workload, OracleKind oracle,
                             bool scan) {
  std::vector<double> rounds;
  for (const std::uint64_t seed : kSeeds) {
    WorkloadParams params;
    params.peers = kPeers;
    params.seed = seed;
    EngineConfig config;
    config.algorithm = AlgorithmKind::kGreedy;
    config.oracle = oracle;
    config.seed = seed;
    Engine engine(generate_workload(workload, params), config);
    if (scan)
      engine.set_oracle(std::make_unique<reference::ScanOracle>(oracle));
    if (const auto converged = engine.run_until_converged(kMaxRounds))
      rounds.push_back(static_cast<double>(*converged));
  }
  return rounds;
}

TEST(OracleEquivalenceTest, Fig3GridMatchesTheScanOracle) {
  struct Cell {
    std::string name;
    std::vector<double> indexed;
    std::vector<double> scanned;
  };
  std::vector<Cell> cells;
  for (const WorkloadKind workload : kAllWorkloads)
    for (const OracleKind oracle : kOracles)
      cells.push_back({to_string(workload) + " " + paper_label(oracle),
                       run_cell(workload, oracle, /*scan=*/false),
                       run_cell(workload, oracle, /*scan=*/true)});

  std::size_t compared = 0;
  for (const Cell& cell : cells) {
    EXPECT_EQ(cell.indexed.empty(), cell.scanned.empty())
        << cell.name << ": converged on " << cell.indexed.size()
        << " indexed and " << cell.scanned.size() << " scanned trials";
    if (!cell.indexed.empty() && !cell.scanned.empty()) ++compared;
  }
  // Only fig3's DNC cell (O2b on Tf1) may sit out the comparison.
  ASSERT_GE(compared, cells.size() - 1);
  const double confidence = 1.0 - 0.01 / static_cast<double>(compared);
  Rng rng(2024);
  for (const Cell& cell : cells) {
    if (cell.indexed.empty() || cell.scanned.empty()) continue;
    const ConfidenceInterval ci = bootstrap_median_difference_ci(
        cell.indexed, cell.scanned, confidence, 20000, rng);
    EXPECT_LE(ci.lower, 0.0) << cell.name << ": median difference "
                             << ci.point << " in [" << ci.lower << ", "
                             << ci.upper << "]";
    EXPECT_GE(ci.upper, 0.0) << cell.name << ": median difference "
                             << ci.point << " in [" << ci.lower << ", "
                             << ci.upper << "]";
  }
}

}  // namespace
}  // namespace lagover
