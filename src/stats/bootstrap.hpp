// Bootstrap confidence intervals for the small-sample experiment
// summaries (the paper uses the median of 5 runs; we additionally report
// uncertainty so shape comparisons are honest).
#pragma once

#include <vector>

#include "common/rng.hpp"

namespace lagover {

struct ConfidenceInterval {
  double lower;
  double point;
  double upper;
};

/// Percentile-bootstrap CI for the median of `values`.
ConfidenceInterval bootstrap_median_ci(const std::vector<double>& values,
                                       double confidence, int resamples,
                                       Rng& rng);

/// Percentile-bootstrap CI for the mean of `values`.
ConfidenceInterval bootstrap_mean_ci(const std::vector<double>& values,
                                     double confidence, int resamples,
                                     Rng& rng);

/// Two-sample percentile-bootstrap CI for median(a) - median(b), each
/// sample resampled on its own: an interval holding 0 means the two
/// medians are indistinguishable at that confidence.
ConfidenceInterval bootstrap_median_difference_ci(const std::vector<double>& a,
                                                  const std::vector<double>& b,
                                                  double confidence,
                                                  int resamples, Rng& rng);

}  // namespace lagover
