#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <cstddef>
#include <vector>

namespace perfbench {

/** Median of `values` (mean of the middle pair for even sizes). */
double median(std::vector<double> values);

/**
 * Nearest-rank percentile: the smallest sample with at least `q` of the
 * samples at or below it. @throws std::invalid_argument when fewer than
 * `min_beyond` samples lie strictly above the returned rank, so a tail
 * percentile is never read off a handful of samples.
 */
double percentile(std::vector<double> values, double q,
                  std::size_t min_beyond = 10);

/** Number of samples strictly above the nearest rank of `q` among `n`. */
std::size_t samplesBeyond(std::size_t n, double q);

/**
 * Scale a wall time measured beside a host-reference run of `ref_seconds`
 * to the reference kernel's nominal time: the time the work would take on
 * a host running the reference in `nominal_ref_seconds`.
 */
double normalizeSeconds(double raw_seconds, double ref_seconds,
                        double nominal_ref_seconds);

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
