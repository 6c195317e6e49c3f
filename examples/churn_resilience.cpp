// Churn resilience scenario: readers continuously leave and rejoin
// (paper Section 5.3 model). Shows the satisfied fraction over time, a
// mass-failure shock, and recovery.
//
//   $ ./churn_resilience [--peers N] [--seed S] [--rounds R]
#include <cstdio>
#include <memory>
#include <tuple>

#include "common/flags.hpp"
#include "core/engine.hpp"
#include "workload/churn.hpp"
#include "workload/constraints.hpp"

namespace {

void print_sparkline(const std::vector<lagover::RoundStats>& history) {
  // 60-column coarse time series of the satisfied fraction.
  static const char* kLevels[] = {" ", ".", ":", "-", "=", "#"};
  const std::size_t columns = 60;
  std::printf("satisfied fraction over time (one char ≈ %zu rounds):\n|",
              history.size() / columns + 1);
  for (std::size_t c = 0; c < columns; ++c) {
    const std::size_t index = c * history.size() / columns;
    const double fraction = history[index].satisfied_fraction;
    const auto level = static_cast<std::size_t>(fraction * 5.0);
    std::printf("%s", kLevels[level > 5 ? 5 : level]);
  }
  std::puts("|");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lagover;
  const auto [peers, seed, rounds] = read_flags_or_exit(
      argc, argv, {{"peers", "N"}, {"seed", "S"}, {"rounds", "R"}},
      [](const Flags& flags) {
        return std::tuple(
            static_cast<std::size_t>(flags.get_int("peers", 120)),
            static_cast<std::uint64_t>(flags.get_int("seed", 11)),
            static_cast<Round>(flags.get_int("rounds", 600)));
      });

  WorkloadParams params;
  params.peers = peers;
  params.seed = seed;
  const Population population =
      generate_workload(WorkloadKind::kBiCorr, params);

  // --- steady churn ------------------------------------------------------
  {
    EngineConfig config;
    config.algorithm = AlgorithmKind::kHybrid;
    config.seed = seed;
    Engine engine(population, config);
    engine.set_churn(std::make_unique<BernoulliChurn>(0.01, 0.2));
    engine.set_record_history(true);
    for (Round r = 0; r < rounds; ++r) engine.run_round();

    std::printf("steady churn (p_leave=0.01, p_join=0.2), %zu peers, %llu "
                "rounds:\n",
                peers, static_cast<unsigned long long>(rounds));
    print_sparkline(engine.history());
    double burned_in = 0.0;
    int count = 0;
    for (const auto& stats : engine.history()) {
      if (stats.round <= rounds / 3) continue;
      burned_in += stats.satisfied_fraction;
      ++count;
    }
    std::printf("steady-state satisfied fraction: %.3f; maintenance "
                "detaches: %llu\n\n",
                burned_in / count,
                static_cast<unsigned long long>(
                    engine.runtime().maintenance_detaches()));
  }

  // --- mass failure and recovery -----------------------------------------
  {
    EngineConfig config;
    config.algorithm = AlgorithmKind::kHybrid;
    config.seed = seed + 1;
    Engine engine(population, config);
    engine.set_churn(std::make_unique<MassFailureChurn>(
        /*fail_round=*/rounds / 3, /*fail_fraction=*/0.4, /*p_join=*/0.25));
    engine.set_record_history(true);
    Round recovered_at = 0;
    for (Round r = 0; r < rounds; ++r) {
      engine.run_round();
      if (recovered_at == 0 && r > rounds / 3 &&
          engine.overlay().online_count() == peers &&
          engine.overlay().all_satisfied())
        recovered_at = engine.round();
    }
    std::printf("mass failure: 40%% of peers crash at round %llu\n",
                static_cast<unsigned long long>(rounds / 3));
    print_sparkline(engine.history());
    if (recovered_at != 0)
      std::printf("fully recovered (all %zu peers satisfied) at round "
                  "%llu — %llu rounds after the shock\n",
                  peers, static_cast<unsigned long long>(recovered_at),
                  static_cast<unsigned long long>(recovered_at - rounds / 3));
    else
      std::puts("not yet fully recovered within the horizon");
  }
  return 0;
}
