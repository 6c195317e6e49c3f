// Live swarm: the full story in one run — readers churn in and out
// while the LagOver is being built AND the feed keeps publishing. Shows
// per-tick freshness and the end-to-end delivery outcome (what a real
// RSS swarm's operators would monitor).
//
//   $ ./live_swarm [--peers N] [--seed S] [--p-leave P]
#include <algorithm>
#include <cstdio>
#include <memory>
#include <tuple>

#include "common/flags.hpp"
#include "feed/live.hpp"
#include "workload/churn.hpp"
#include "workload/constraints.hpp"

int main(int argc, char** argv) {
  using namespace lagover;
  const auto [peers, seed, p_leave] = read_flags_or_exit(
      argc, argv, {{"peers", "N"}, {"seed", "S"}, {"p-leave", "P"}},
      [](const Flags& flags) {
        return std::tuple(
            static_cast<std::size_t>(
                flags.get_int_in("peers", 120, 1, kMaxCountFlag)),
            static_cast<std::uint64_t>(flags.get_int("seed", 17)),
            flags.get_double("p-leave", 0.01));
      });

  WorkloadParams params;
  params.peers = peers;
  params.seed = seed;

  feed::LiveConfig config;
  config.engine.algorithm = AlgorithmKind::kHybrid;
  config.engine.seed = seed;
  if (p_leave > 0.0)
    config.churn = [p_leave] {
      return std::make_unique<BernoulliChurn>(p_leave, 0.2);
    };
  config.publish_every = 3;
  config.warmup_rounds = 100;
  config.measured_rounds = 500;

  std::printf("live swarm: %zu readers, churn p_leave=%.3f p_join=0.2, "
              "one item every %llu ticks\n",
              peers, p_leave,
              static_cast<unsigned long long>(config.publish_every));
  const auto report = feed::run_live_dissemination(
      generate_workload(WorkloadKind::kBiCorr, params), config);

  std::printf("\nmeasured window: %llu items published\n",
              static_cast<unsigned long long>(report.items_published));
  std::printf("deliveries: %llu (%.2f%% within each reader's staleness "
              "budget)\n",
              static_cast<unsigned long long>(report.total_deliveries),
              report.on_time_fraction * 100.0);

  // Freshness timeline, 60 columns.
  static const char* kLevels[] = {" ", ".", ":", "-", "=", "#"};
  std::printf("\nfreshness over time (fraction of readers within budget):"
              "\n|");
  const std::size_t columns = 60;
  for (std::size_t c = 0; c < columns; ++c) {
    const std::size_t index = c * report.freshness.size() / columns;
    const double f = report.freshness.value_at(index);
    const auto level = static_cast<std::size_t>(f * 5.0);
    std::printf("%s", kLevels[std::min<std::size_t>(level, 5)]);
  }
  std::puts("|");

  // The worst-affected readers.
  auto worst = report.nodes;
  std::sort(worst.begin(), worst.end(),
            [](const feed::LiveNodeStats& a, const feed::LiveNodeStats& b) {
              return a.late_deliveries > b.late_deliveries;
            });
  std::puts("\nmost-affected readers:");
  for (std::size_t i = 0; i < worst.size() && i < 5; ++i) {
    const auto& node = worst[i];
    std::printf("  reader %-3u: %llu/%llu deliveries late, worst "
                "staleness %.0f ticks\n",
                node.node,
                static_cast<unsigned long long>(node.late_deliveries),
                static_cast<unsigned long long>(node.deliveries),
                node.max_staleness);
  }
  return 0;
}
