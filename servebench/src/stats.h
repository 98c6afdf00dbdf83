/**
 * @file
 * Order statistics used by every metric the benchmark reports.
 *
 * Percentiles interpolate linearly between closest ranks (the "type 7"
 * estimator numpy and R default to).
 */

#ifndef SERVEBENCH_STATS_H
#define SERVEBENCH_STATS_H

#include <vector>

namespace servebench {

/** The q-quantile (q in [0, 1]) of `values`, linearly interpolated
 *  between closest ranks. Throws std::invalid_argument on an empty
 *  sample or q outside [0, 1]. */
double quantile(std::vector<double> values, double q);

/** quantile(values, 0.5). */
double median(const std::vector<double> &values);

/** Normalized mean squared error sum((a - ref)^2) / sum(ref^2), both
 *  flattened in row-major order; accumulated in double. Throws
 *  std::invalid_argument when the sizes differ or ref is all zero. */
double nmse(const std::vector<float> &ref, const std::vector<float> &a);

} // namespace servebench

#endif // SERVEBENCH_STATS_H
