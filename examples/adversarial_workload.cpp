// Adversarial workload walk-through (paper Section 3.3.1): an instance
// where the latency-greedy strategy provably cannot build a valid
// LagOver, while the hybrid strategy finds the unique feasible shape.
//
//   $ ./adversarial_workload [--k N] [--seed S]
#include <cstdio>
#include <tuple>

#include "common/flags.hpp"
#include "core/engine.hpp"
#include "core/sufficiency.hpp"
#include "workload/adversarial.hpp"

int main(int argc, char** argv) {
  using namespace lagover;
  const auto [k, seed] = read_flags_or_exit(
      argc, argv, {{"k", "N"}, {"seed", "S"}}, [](const Flags& flags) {
        return std::tuple(
            static_cast<int>(flags.get_int("k", 4)),
            static_cast<std::uint64_t>(flags.get_int("seed", 3)));
      });

  const Population population = adversarial_family(k);
  std::puts("adversarial instance (i_f^l notation):");
  std::printf("  source fanout %d\n", population.source_fanout);
  for (const auto& spec : population.consumers)
    std::printf("  %s\n", to_notation(spec).c_str());

  std::printf("\nsufficient condition holds: %s (it is sufficient, not "
              "necessary)\n",
              sufficiency_condition(population).holds ? "yes" : "no");
  const auto depths = feasible_depths(population);
  std::printf("exactly feasible: %s\n", depths.has_value() ? "yes" : "no");
  if (depths.has_value()) {
    std::puts("one feasible tree (from the exact checker):");
    const Overlay witness = build_witness_overlay(population, *depths);
    std::printf("%s", witness.to_ascii().c_str());
  }

  for (auto algorithm : {AlgorithmKind::kGreedy, AlgorithmKind::kHybrid}) {
    EngineConfig config;
    config.algorithm = algorithm;
    config.oracle = OracleKind::kRandomDelay;
    config.seed = seed;
    Engine engine(population, config);
    const auto converged = engine.run_until_converged(2000);
    std::printf("\n%s: ", to_string(algorithm).c_str());
    if (converged.has_value()) {
      std::printf("converged in %llu rounds\n",
                  static_cast<unsigned long long>(*converged));
      std::printf("%s", engine.overlay().to_ascii().c_str());
    } else {
      std::printf("did NOT converge (satisfied %zu/%zu after 2000 "
                  "rounds)\n",
                  engine.overlay().satisfied_count(),
                  engine.overlay().online_count());
    }
  }
  std::puts("\nwhy greedy fails: its invariant (a parent's latency "
            "constraint is never laxer than its child's) makes the hub — "
            "the only node with enough fanout — unreachable as a parent "
            "for the strict leaves.");
  return 0;
}
