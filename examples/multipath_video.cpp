// Multipath video delivery — the paper's Section 7 future-work
// application: "each peer participates in multiple LagOvers with
// different time constraints — one LagOver for each of the multiple
// paths." A video stream is striped into K substreams; a peer needs all
// K stripes, with successively laxer deadlines per stripe (later stripes
// can be buffered). Each stripe gets its own LagOver; a peer splits its
// upload budget across the K overlays.
//
//   $ ./multipath_video [--peers N] [--stripes K] [--seed S]
#include <cstdio>
#include <memory>
#include <tuple>
#include <vector>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "metrics/tree_metrics.hpp"

int main(int argc, char** argv) {
  using namespace lagover;
  const auto [peers, stripes, seed] = read_flags_or_exit(
      argc, argv, {{"peers", "N"}, {"stripes", "K"}, {"seed", "S"}},
      [](const Flags& flags) {
        return std::tuple(
            static_cast<std::size_t>(flags.get_int("peers", 90)),
            static_cast<int>(flags.get_int("stripes", 3)),
            static_cast<std::uint64_t>(flags.get_int("seed", 21)));
      });

  // Per-peer totals: an upload budget (total fanout, split across
  // stripes) and a playback deadline for stripe 0; stripe s tolerates
  // `s` extra units of buffering.
  Rng rng(seed);
  std::vector<int> total_fanout(peers);
  std::vector<Delay> base_deadline(peers);
  for (std::size_t i = 0; i < peers; ++i) {
    total_fanout[i] = static_cast<int>(rng.uniform_int(0, 2)) * stripes +
                      stripes;  // multiples of K, so the split is even
    base_deadline[i] = static_cast<Delay>(rng.uniform_int(2, 6));
  }

  std::printf("video striped into %d substreams, %zu viewers; one LagOver "
              "per stripe\n\n",
              stripes, peers);

  std::vector<std::unique_ptr<Engine>> engines;
  engines.reserve(static_cast<std::size_t>(stripes));
  bool all_converged = true;
  for (int s = 0; s < stripes; ++s) {
    Population population;
    population.source_fanout = 4;
    for (std::size_t i = 0; i < peers; ++i)
      population.consumers.push_back(NodeSpec{
          static_cast<NodeId>(i + 1),
          Constraints{total_fanout[i] / stripes,
                      static_cast<Delay>(base_deadline[i] + s)}});
    EngineConfig config;
    config.algorithm = AlgorithmKind::kHybrid;
    config.oracle = OracleKind::kRandomDelay;
    config.seed = seed + static_cast<std::uint64_t>(s);
    engines.push_back(std::make_unique<Engine>(population, config));
    const auto converged = engines.back()->run_until_converged(4000);
    const TreeMetrics metrics =
        compute_tree_metrics(engines.back()->overlay());
    if (converged.has_value())
      std::printf("stripe %d: converged in %4llu rounds — max depth %d, "
                  "mean depth %.2f, %zu direct pollers\n",
                  s, static_cast<unsigned long long>(*converged),
                  metrics.max_depth, metrics.mean_depth,
                  metrics.source_children);
    else {
      std::printf("stripe %d: did not converge\n", s);
      all_converged = false;
    }
  }

  // A viewer can play smoothly iff every stripe arrives by its deadline.
  std::size_t smooth = 0;
  for (std::size_t i = 0; i < peers; ++i) {
    bool ok = true;
    for (const auto& engine : engines)
      ok = ok && engine->overlay().satisfied(static_cast<NodeId>(i + 1));
    if (ok) ++smooth;
  }
  std::printf("\nviewers receiving ALL %d stripes within deadline: %zu/%zu"
              "\n",
              stripes, smooth, peers);

  // Path diversity: how often a viewer has distinct parents across
  // stripes (the multipath property that gives resilience).
  std::size_t diverse = 0;
  for (std::size_t i = 0; i < peers; ++i) {
    const NodeId id = static_cast<NodeId>(i + 1);
    bool distinct = true;
    for (int a = 0; a < stripes && distinct; ++a)
      for (int b = a + 1; b < stripes && distinct; ++b)
        distinct =
            engines[static_cast<std::size_t>(a)]->overlay().parent(id) !=
            engines[static_cast<std::size_t>(b)]->overlay().parent(id);
    if (distinct) ++diverse;
  }
  std::printf("viewers with fully distinct parents across stripes "
              "(path diversity): %zu/%zu\n",
              diverse, peers);
  return all_converged ? 0 : 1;
}
