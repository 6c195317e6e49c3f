// Figure 1 reproduction: evolution of a LagOver on the paper's
// Section 3.2 toy system — source 0_3 and consumers
// a_2^1 b_2^3 c_2^3 d_2^1 e_2^2 f_2^3 g_2^3 h_2^3 i_2^3 j_2^4
// (ids 1..10 here). Prints the forest after each round so the group
// formation, coalescing, and maintenance detaches (the paper's g and i
// events) are visible, then the converged tree.
#include <cstdio>
#include <iostream>

#include "bench/bench_util.hpp"
#include "core/engine.hpp"

namespace lagover {
namespace {

Population toy_population() {
  Population p;
  p.source_fanout = 3;  // 0_3
  p.consumers = {
      NodeSpec{1, Constraints{2, 1}},   // a_2^1
      NodeSpec{2, Constraints{2, 3}},   // b_2^3
      NodeSpec{3, Constraints{2, 3}},   // c_2^3
      NodeSpec{4, Constraints{2, 1}},   // d_2^1
      NodeSpec{5, Constraints{2, 2}},   // e_2^2
      NodeSpec{6, Constraints{2, 3}},   // f_2^3
      NodeSpec{7, Constraints{2, 3}},   // g_2^3
      NodeSpec{8, Constraints{2, 3}},   // h_2^3
      NodeSpec{9, Constraints{2, 3}},   // i_2^3
      NodeSpec{10, Constraints{2, 4}},  // j_2^4
  };
  return p;
}

int run(int argc, char** argv) {
  const auto options = bench::BenchOptions::parse(argc, argv);
  std::cout << "# Figure 1 — evolution of a LagOver (Section 3.2 toy "
               "system, greedy + maintenance)\n";

  bench::BenchJson bench_json("bench_fig1_toy_trace", options);
  bench::TelemetryExport telemetry_export(options);

  EngineConfig config;
  config.algorithm = AlgorithmKind::kGreedy;
  config.oracle = OracleKind::kRandomDelay;
  config.seed = options.seed;
  Engine engine(toy_population(), config);

  std::uint64_t maintenance_events = 0;
  engine.trace_bus().subscribe([&](const TraceEvent& event) {
    if (event.type == TraceEventType::kMaintenanceDetach) {
      ++maintenance_events;
      std::printf("round %llu: node %u discards its parent "
                  "(latency constraint violated)\n",
                  static_cast<unsigned long long>(event.round),
                  event.subject);
    }
  });

  Round converged_round = 0;
  const telemetry::PerfPhase perf_phase("construction");
  for (Round round = 1; round <= options.max_rounds; ++round) {
    engine.run_round();
    telemetry_export.sample(static_cast<double>(round));
    std::printf("\n--- after round %llu (satisfied %zu/%zu) ---\n",
                static_cast<unsigned long long>(round),
                engine.overlay().satisfied_count(),
                engine.overlay().online_count());
    std::cout << engine.overlay().to_ascii();
    if (engine.overlay().all_satisfied()) {
      converged_round = round;
      std::printf("\nconverged after %llu rounds, %llu maintenance "
                  "detach(es)\n",
                  static_cast<unsigned long long>(round),
                  static_cast<unsigned long long>(maintenance_events));
      break;
    }
  }
  if (converged_round == 0)
    std::puts("\ndid not converge within the round budget");
  bench_json.add_count("converged", converged_round > 0 ? 1 : 0);
  bench_json.add_count("convergence_round",
                       static_cast<std::uint64_t>(converged_round));
  bench_json.add_count("maintenance_detaches", maintenance_events);
  telemetry_export.finish(bench_json);
  bench_json.write(options);
  return converged_round > 0 ? 0 : 1;
}

}  // namespace
}  // namespace lagover

int main(int argc, char** argv) { return lagover::run(argc, argv); }
