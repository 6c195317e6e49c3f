// RSS aggregation scenario — the paper's motivating application. A
// popular but resource-constrained blog publishes items; its readers
// self-organize into a LagOver instead of all polling the server.
//
//   $ ./rss_aggregator [--peers N] [--seed S] [--publish-period T]
//
// Prints the source's request load under (a) status-quo direct polling
// and (b) LagOver dissemination, plus per-reader staleness versus their
// declared tolerance.
#include <algorithm>
#include <cstdio>
#include <tuple>

#include "baseline/polling.hpp"
#include "common/flags.hpp"
#include "core/engine.hpp"
#include "feed/dissemination.hpp"
#include "workload/constraints.hpp"

int main(int argc, char** argv) {
  using namespace lagover;
  const auto [peers, seed, publish_period] = read_flags_or_exit(
      argc, argv, {{"peers", "N"}, {"seed", "S"}, {"publish-period", "T"}},
      [](const Flags& flags) {
        return std::tuple(
            static_cast<std::size_t>(flags.get_int("peers", 120)),
            static_cast<std::uint64_t>(flags.get_int("seed", 7)),
            flags.get_double("publish-period", 3.0));
      });

  WorkloadParams params;
  params.peers = peers;
  params.seed = seed;
  const Population readers = generate_workload(WorkloadKind::kBiCorr, params);
  std::printf("blog with %zu readers; server fanout budget %d direct "
              "pollers\n\n",
              readers.size(), readers.source_fanout);

  // --- status quo: every reader polls the blog directly ----------------
  feed::DisseminationConfig dconfig;
  dconfig.seed = seed;
  dconfig.source.publish_period = publish_period;
  const auto direct = baseline::run_all_poll(readers, dconfig, 300.0);
  std::printf("status quo (all readers poll): %.1f requests/unit at the "
              "server, %llu of them returned nothing new\n",
              direct.source_request_rate,
              static_cast<unsigned long long>(direct.source_empty_requests));

  // --- LagOver: readers self-organize -----------------------------------
  EngineConfig config;
  config.algorithm = AlgorithmKind::kHybrid;
  config.oracle = OracleKind::kRandomDelay;
  config.seed = seed;
  Engine engine(readers, config);
  const auto converged = engine.run_until_converged(3000);
  if (!converged.has_value()) {
    std::puts("construction did not converge");
    return 1;
  }
  const auto lagover =
      feed::run_dissemination(engine.overlay(), dconfig, 300.0);
  std::printf("LagOver (converged in %llu rounds): %.1f requests/unit "
              "from %zu pollers, %llu push messages among readers\n",
              static_cast<unsigned long long>(*converged),
              lagover.source_request_rate, lagover.pollers,
              static_cast<unsigned long long>(lagover.push_messages));
  std::printf("server load reduction: %.0fx\n\n",
              direct.source_request_rate / lagover.source_request_rate);

  // --- per-reader staleness vs declared tolerance -----------------------
  std::size_t met = 0;
  double worst_ratio = 0.0;
  for (const auto& node : lagover.nodes) {
    if (node.constraint_met) ++met;
    worst_ratio = std::max(
        worst_ratio,
        node.max_staleness / static_cast<double>(node.latency_constraint));
  }
  std::printf("staleness budgets met: %zu/%zu readers (worst "
              "staleness/budget ratio %.2f)\n",
              met, lagover.nodes.size(), worst_ratio);

  std::puts("\nsample readers (staleness in time units):");
  for (std::size_t i = 0; i < lagover.nodes.size() && i < 6; ++i) {
    const auto& node = lagover.nodes[i];
    std::printf("  reader %-3u tolerance %-2d observed max %.2f mean %.2f "
                "(%llu items)\n",
                node.node, node.latency_constraint, node.max_staleness,
                node.mean_staleness,
                static_cast<unsigned long long>(node.items));
  }
  return 0;
}
