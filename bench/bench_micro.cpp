// Micro-benchmarks (google-benchmark): costs of the core data-structure
// operations, oracle sampling, engine rounds, the exact feasibility
// checker, and Chord lookups. These bound how large a simulated
// population the harness can handle.
//
// Unlike the sweep benches this binary is driven by google-benchmark's
// own flags (--benchmark_filter etc.); the custom main below still
// parses the shared bench flags afterwards so the run emits the same
// "lagover.bench.v1" summary as every other bench, with each
// benchmark's per-iteration real time (normalized to nanoseconds) as a
// headline scalar.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>

#include "bench/bench_util.hpp"
#include "core/engine.hpp"
#include "core/optimizer.hpp"
#include "core/snapshot.hpp"
#include "core/sufficiency.hpp"
#include "core/validator.hpp"
#include "dht/chord.hpp"
#include "workload/constraints.hpp"

namespace lagover {
namespace {

Population rand_population(std::size_t peers, std::uint64_t seed = 1) {
  WorkloadParams params;
  params.peers = peers;
  params.seed = seed;
  return generate_workload(WorkloadKind::kRand, params);
}

void BM_OverlayAttachDetach(benchmark::State& state) {
  Overlay overlay(rand_population(static_cast<std::size_t>(state.range(0))));
  // Find a hosting pair once.
  NodeId parent = kNoNode;
  for (NodeId id = 1; id < overlay.node_count(); ++id)
    if (overlay.fanout_of(id) > 0) {
      parent = id;
      break;
    }
  const NodeId child = parent == 1 ? 2 : 1;
  for (auto _ : state) {
    overlay.attach(child, parent);
    overlay.detach(child);
  }
}
BENCHMARK(BM_OverlayAttachDetach)->Arg(120)->Arg(960);

void BM_OverlayDelayAt(benchmark::State& state) {
  // A maximal chain: delay_at cost is proportional to depth.
  Population p;
  p.source_fanout = 1;
  const auto n = static_cast<std::size_t>(state.range(0));
  for (NodeId id = 1; id <= n; ++id)
    p.consumers.push_back(
        NodeSpec{id, Constraints{1, static_cast<Delay>(n)}});
  Overlay overlay(p);
  overlay.attach(1, kSourceId);
  for (NodeId id = 2; id <= n; ++id) overlay.attach(id, id - 1);
  const auto leaf = static_cast<NodeId>(n);
  for (auto _ : state) benchmark::DoNotOptimize(overlay.delay_at(leaf));
}
BENCHMARK(BM_OverlayDelayAt)->Arg(16)->Arg(128);

void BM_OracleSample(benchmark::State& state) {
  Overlay overlay(rand_population(static_cast<std::size_t>(state.range(0))));
  auto oracle = make_oracle(OracleKind::kRandomDelay);
  Rng rng(7);
  for (auto _ : state)
    benchmark::DoNotOptimize(oracle->sample(1, overlay, rng));
}
BENCHMARK(BM_OracleSample)->Arg(120)->Arg(960)->Arg(16000);

void BM_EngineRound(benchmark::State& state) {
  EngineConfig config;
  config.seed = 3;
  Engine engine(rand_population(static_cast<std::size_t>(state.range(0))),
                config);
  for (auto _ : state) benchmark::DoNotOptimize(engine.run_round());
}
BENCHMARK(BM_EngineRound)->Arg(120)->Arg(960);

void BM_FullConstruction(benchmark::State& state) {
  const Population population =
      rand_population(static_cast<std::size_t>(state.range(0)));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    EngineConfig config;
    config.seed = ++seed;
    Engine engine(population, config);
    benchmark::DoNotOptimize(engine.run_until_converged(5000));
  }
}
BENCHMARK(BM_FullConstruction)->Arg(120)->Unit(benchmark::kMillisecond);

void BM_SufficiencyCondition(benchmark::State& state) {
  const Population population =
      rand_population(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(sufficiency_condition(population));
}
BENCHMARK(BM_SufficiencyCondition)->Arg(120)->Arg(960);

void BM_ExactFeasibility(benchmark::State& state) {
  const Population population =
      rand_population(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(feasible_depths(population));
}
BENCHMARK(BM_ExactFeasibility)->Arg(120)->Arg(960);

void BM_SnapshotRoundTrip(benchmark::State& state) {
  EngineConfig config;
  config.seed = 5;
  Engine engine(rand_population(static_cast<std::size_t>(state.range(0))),
                config);
  engine.run_until_converged(5000);
  for (auto _ : state)
    benchmark::DoNotOptimize(from_snapshot(to_snapshot(engine.overlay())));
}
BENCHMARK(BM_SnapshotRoundTrip)->Arg(120)->Arg(960);

void BM_ValidateOverlay(benchmark::State& state) {
  EngineConfig config;
  config.seed = 7;
  Engine engine(rand_population(static_cast<std::size_t>(state.range(0))),
                config);
  engine.run_until_converged(5000);
  for (auto _ : state)
    benchmark::DoNotOptimize(validate_overlay(engine.overlay()));
}
BENCHMARK(BM_ValidateOverlay)->Arg(120)->Arg(960);

void BM_OptimizeShallowCapacity(benchmark::State& state) {
  const Population population =
      rand_population(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    EngineConfig config;
    config.seed = 9;
    Engine engine(population, config);
    engine.run_until_converged(5000);
    state.ResumeTiming();
    benchmark::DoNotOptimize(optimize_shallow_capacity(engine.overlay()));
  }
}
BENCHMARK(BM_OptimizeShallowCapacity)->Arg(120)->Unit(benchmark::kMillisecond);

void BM_ChordLookup(benchmark::State& state) {
  dht::ChordRing ring(static_cast<std::size_t>(state.range(0)),
                      dht::ChordConfig{}, 5);
  ring.run_until_stable(500.0);
  ring.simulator().run_until(ring.simulator().now() + 200.0);
  std::uint64_t key = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(ring.lookup_sync(0, dht::hash_u64(++key)));
}
BENCHMARK(BM_ChordLookup)->Arg(16)->Arg(64)->Unit(benchmark::kMicrosecond);

/// Console output as usual, plus every iteration-level run captured so
/// main can emit them as bench-JSON scalars.
class CapturingReporter final : public benchmark::ConsoleReporter {
 public:
  struct Captured {
    std::string name;
    double real_ns;
    double cpu_ns;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      // GetAdjustedRealTime is in the run's own display unit; divide the
      // unit multiplier back out to get seconds, then scale to ns so the
      // JSON is unit-uniform regardless of each benchmark's Unit().
      const double to_ns =
          1e9 / benchmark::GetTimeUnitMultiplier(run.time_unit);
      captured.push_back({run.benchmark_name(),
                          run.GetAdjustedRealTime() * to_ns,
                          run.GetAdjustedCPUTime() * to_ns});
    }
  }

  std::vector<Captured> captured;
};

}  // namespace
}  // namespace lagover

int main(int argc, char** argv) {
  // google-benchmark consumes its --benchmark_* flags; the shared bench
  // flags (--bench-json, --telemetry, ...) are whatever remains. Any
  // --benchmark_* value the library rejected (older releases take no
  // "0.05s" durations) it has already reported, so drop those too.
  benchmark::Initialize(&argc, argv);
  const auto benchmark_flag = [](const char* arg) {
    return std::strncmp(arg, "--benchmark_", 12) == 0;
  };
  char** const end = std::remove_if(argv + 1, argv + argc, benchmark_flag);
  argc = static_cast<int>(end - argv);
  const auto options = lagover::bench::BenchOptions::parse(argc, argv);
  lagover::bench::BenchJson bench_json("bench_micro", options);
  lagover::bench::TelemetryExport telemetry_export(options);

  lagover::CapturingReporter reporter;
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  for (const auto& run : reporter.captured) {
    bench_json.add_scalar(run.name + ".real_ns", run.real_ns);
    bench_json.add_scalar(run.name + ".cpu_ns", run.cpu_ns);
    // With --perf the same scalars land in the "lagover.perf.v1"
    // section under "micro", so perf_compare.py sees one schema.
    if (telemetry_export.perf() != nullptr)
      telemetry_export.perf()->note_micro(run.name, run.real_ns,
                                          run.cpu_ns);
  }
  bench_json.add_count("benchmarks_run", ran);
  telemetry_export.finish(bench_json);
  bench_json.write(options);
  return ran == 0 ? 1 : 0;
}
