// Quickstart: build a LagOver for 120 consumers with heterogeneous
// latency/fanout constraints and inspect the result.
//
//   $ ./quickstart [--peers N] [--seed S]
//
// Walks through the whole public API surface: workload generation,
// sufficiency checking, construction with the hybrid algorithm and the
// Random-Delay oracle, and post-hoc tree metrics.
#include <cstdio>
#include <iostream>
#include <tuple>

#include "common/flags.hpp"
#include "core/engine.hpp"
#include "core/sufficiency.hpp"
#include "metrics/tree_metrics.hpp"
#include "workload/constraints.hpp"

int main(int argc, char** argv) {
  using namespace lagover;
  const auto [peers, seed] = read_flags_or_exit(
      argc, argv, {{"peers", "N"}, {"seed", "S"}}, [](const Flags& flags) {
        return std::tuple(
            static_cast<std::size_t>(
                flags.get_int_in("peers", 120, 1, kMaxCountFlag)),
            static_cast<std::uint64_t>(flags.get_int("seed", 42)));
      });

  // 1. A population: every consumer declares a maximum fanout (how many
  //    children it will serve) and a latency constraint (max staleness
  //    in time units). Here: bimodal uncorrelated constraints.
  WorkloadParams params;
  params.peers = peers;
  params.seed = seed;
  const Population population =
      generate_workload(WorkloadKind::kBiUnCorr, params);
  std::printf("population: %zu consumers, source fanout %d\n",
              population.size(), population.source_fanout);

  // 2. Does a LagOver exist at all? The paper's sufficient condition,
  //    plus the exact feasibility check.
  const auto report = sufficiency_condition(population);
  std::printf("sufficiency condition holds: %s; exactly feasible: %s\n",
              report.holds ? "yes" : "no",
              exactly_feasible(population) ? "yes" : "no");

  // 3. Construct: hybrid algorithm (joint latency+capacity optimization)
  //    with Oracle Random-Delay — the paper's best configuration.
  EngineConfig config;
  config.algorithm = AlgorithmKind::kHybrid;
  config.oracle = OracleKind::kRandomDelay;
  config.seed = seed;
  Engine engine(population, config);
  const auto converged = engine.run_until_converged(/*max_rounds=*/3000);
  if (!converged.has_value()) {
    std::puts("did not converge within the round budget");
    return 1;
  }
  std::printf("converged in %llu rounds\n",
              static_cast<unsigned long long>(*converged));

  // 4. Inspect the dissemination tree.
  const TreeMetrics metrics = compute_tree_metrics(engine.overlay());
  std::printf("tree: %zu connected, max depth %d, mean depth %.2f\n",
              metrics.connected, metrics.max_depth, metrics.mean_depth);
  std::printf("source serves %zu direct pollers (fanout budget %d)\n",
              metrics.source_children, population.source_fanout);
  std::printf("min latency slack %d, mean slack %.2f, fanout utilization "
              "%.0f%%\n",
              metrics.min_slack, metrics.mean_slack,
              metrics.fanout_utilization * 100.0);
  std::printf("every constraint satisfied: %s\n",
              engine.overlay().all_satisfied() ? "yes" : "no");

  // 5. Per-node view for a few nodes, in the paper's i_f^l notation.
  std::puts("\nfirst few consumers:");
  for (NodeId id = 1; id <= 5 && id <= peers; ++id) {
    const auto& overlay = engine.overlay();
    std::printf("  %-8s parent=%-3u delay=%d (constraint %d)\n",
                to_notation(overlay.spec_of(id)).c_str(), overlay.parent(id),
                overlay.delay_at(id), overlay.latency_of(id));
  }
  return 0;
}
