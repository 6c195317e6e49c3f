#include "stats/bootstrap.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "stats/sample.hpp"

namespace lagover {

namespace {

/// Fills `out` (already sized) with draws from `values`, with replacement.
void resample_into(const std::vector<double>& values,
                   std::vector<double>& out, Rng& rng) {
  for (auto& x : out)
    x = values[static_cast<std::size_t>(rng.next_below(values.size()))];
}

/// The percentile interval of `stats` around `point`.
ConfidenceInterval percentile_ci(const Sample& stats, double point,
                                 double confidence) {
  const double alpha = (1.0 - confidence) / 2.0;
  return ConfidenceInterval{stats.quantile(alpha), point,
                            stats.quantile(1.0 - alpha)};
}

template <typename Statistic>
ConfidenceInterval bootstrap_ci(const std::vector<double>& values,
                                double confidence, int resamples, Rng& rng,
                                Statistic statistic) {
  LAGOVER_EXPECTS(!values.empty());
  LAGOVER_EXPECTS(confidence > 0.0 && confidence < 1.0);
  LAGOVER_EXPECTS(resamples > 0);

  Sample stats;
  std::vector<double> resample(values.size());
  for (int r = 0; r < resamples; ++r) {
    resample_into(values, resample, rng);
    stats.add(statistic(resample));
  }
  return percentile_ci(stats, statistic(values), confidence);
}

double median_of(std::vector<double> xs) {
  const auto mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid),
                   xs.end());
  const double upper = xs[mid];
  if (xs.size() % 2 == 1) return upper;
  const double lower = *std::max_element(
      xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

double mean_of(const std::vector<double>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

}  // namespace

ConfidenceInterval bootstrap_median_ci(const std::vector<double>& values,
                                       double confidence, int resamples,
                                       Rng& rng) {
  return bootstrap_ci(
      values, confidence, resamples, rng,
      [](const std::vector<double>& xs) { return median_of(xs); });
}

ConfidenceInterval bootstrap_mean_ci(const std::vector<double>& values,
                                     double confidence, int resamples,
                                     Rng& rng) {
  return bootstrap_ci(values, confidence, resamples, rng, mean_of);
}

ConfidenceInterval bootstrap_median_difference_ci(const std::vector<double>& a,
                                                  const std::vector<double>& b,
                                                  double confidence,
                                                  int resamples, Rng& rng) {
  LAGOVER_EXPECTS(!a.empty() && !b.empty());
  LAGOVER_EXPECTS(confidence > 0.0 && confidence < 1.0);
  LAGOVER_EXPECTS(resamples > 0);

  Sample stats;
  std::vector<double> resample_a(a.size());
  std::vector<double> resample_b(b.size());
  for (int r = 0; r < resamples; ++r) {
    resample_into(a, resample_a, rng);
    resample_into(b, resample_b, rng);
    stats.add(median_of(resample_a) - median_of(resample_b));
  }
  return percentile_ci(stats, median_of(a) - median_of(b), confidence);
}

}  // namespace lagover
