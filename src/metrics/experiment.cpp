#include "metrics/experiment.hpp"

#include "common/error.hpp"
#include "telemetry/perf.hpp"

namespace lagover {

ExperimentResult run_experiment(const ExperimentSpec& spec) {
  const telemetry::PerfPhase perf_phase("construction");
  LAGOVER_EXPECTS(spec.population != nullptr);
  LAGOVER_EXPECTS(spec.trials >= 1);

  ExperimentResult result;
  for (int trial = 0; trial < spec.trials; ++trial) {
    const std::uint64_t seed =
        spec.base_seed + static_cast<std::uint64_t>(trial) * 7919;
    EngineConfig config = spec.config;
    config.seed = seed;

    Engine engine(spec.population(seed), config);
    if (spec.churn) engine.set_churn(spec.churn());

    TrialResult trial_result;
    bool reached_full = false;
    Round reached_round = 0;
    for (Round r = 0; r < spec.max_rounds; ++r) {
      const RoundStats stats = engine.run_round();
      if (spec.record_series)
        trial_result.fraction_series.add(static_cast<double>(stats.round),
                                         stats.satisfied_fraction);
      if (!reached_full && engine.overlay().all_satisfied() &&
          engine.overlay().online_count() > 0) {
        reached_full = true;
        reached_round = stats.round;
        if (!spec.run_full_horizon) break;
      }
    }

    trial_result.converged = reached_full;
    trial_result.convergence_round = reached_round;
    trial_result.final_fraction = engine.overlay().satisfied_fraction();
    trial_result.maintenance_detaches =
        engine.runtime().maintenance_detaches();
    trial_result.interactions =
        engine.runtime().protocol().counters().interactions;
    trial_result.oracle_queries = engine.oracle().stats().queries;
    trial_result.oracle_empty = engine.oracle().stats().empty_results;

    if (reached_full)
      result.convergence_rounds.add(static_cast<double>(reached_round));
    else
      ++result.failures;
    result.trials.push_back(std::move(trial_result));
  }
  return result;
}

double ExperimentResult::median_rounds() const {
  if (convergence_rounds.empty()) return -1.0;
  return convergence_rounds.median();
}

double ExperimentResult::min_rounds() const {
  if (convergence_rounds.empty()) return -1.0;
  return convergence_rounds.min();
}

double ExperimentResult::max_rounds_observed() const {
  if (convergence_rounds.empty()) return -1.0;
  return convergence_rounds.max();
}

std::string format_convergence_cell(const ExperimentResult& result) {
  if (!result.any_converged()) return "DNC";
  std::string cell = std::to_string(
      static_cast<long long>(result.median_rounds() + 0.5));
  if (result.failures > 0) {
    const auto total = result.trials.size();
    cell += " (" + std::to_string(total - static_cast<std::size_t>(
                                              result.failures)) +
            "/" + std::to_string(total) + ")";
  }
  return cell;
}

}  // namespace lagover
