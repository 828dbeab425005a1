#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace perfbench {

namespace {

std::size_t
nearestRank(std::size_t n, double q)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    return std::clamp<std::size_t>(rank, 1, n) - 1;
}

} // namespace

double
median(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("median of no samples");
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    if (values.size() % 2 == 1)
        return values[mid];
    const double upper = values[mid];
    const double lower =
        *std::max_element(values.begin(), values.begin() + mid);
    return (lower + upper) / 2.0;
}

std::size_t
samplesBeyond(std::size_t n, double q)
{
    if (n == 0)
        return 0;
    return n - 1 - nearestRank(n, q);
}

double
percentile(std::vector<double> values, double q, std::size_t min_beyond)
{
    if (values.empty())
        throw std::invalid_argument("percentile of no samples");
    if (samplesBeyond(values.size(), q) < min_beyond)
        throw std::invalid_argument(
            "percentile " + std::to_string(q) + " of " +
            std::to_string(values.size()) + " samples has fewer than " +
            std::to_string(min_beyond) + " samples beyond it");
    const std::size_t rank = nearestRank(values.size(), q);
    std::nth_element(values.begin(), values.begin() + rank, values.end());
    return values[rank];
}

double
normalizeSeconds(double raw_seconds, double ref_seconds,
                 double nominal_ref_seconds)
{
    if (!(ref_seconds > 0.0))
        throw std::invalid_argument("host reference time must be positive");
    return raw_seconds * nominal_ref_seconds / ref_seconds;
}

} // namespace perfbench
