#ifndef PERFBENCH_RUNNER_HPP
#define PERFBENCH_RUNNER_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct RunOptions
{
    WorkloadKind kind = WorkloadKind::kColdVerified;
    std::uint64_t seed = 1;
    /** Intended run length; fixes the number of passes, not a deadline. */
    int seconds = 10;
    bool trace = false;
    /** Where the traced run writes its spans ("" = nowhere). */
    std::string traceOut;
    /** Set-up repetitions whose median is setup_s. */
    int setupRepeats = 3;
    /** Force the number of timed passes (0 = derive from `seconds`);
     *  the tests use it to keep runs short. */
    int passes = 0;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunReport
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** End-to-end metrics (untraced run) or per-layer metrics (traced). */
    std::vector<Metric> metrics;
    /** Host block, reference-kernel times, raw timings: metadata. */
    std::vector<std::pair<std::string, std::string>> meta;
    /** First failure messages, for the log. */
    std::vector<std::string> errors;
};

/** Timed passes of one workload for a fixed request list. */
int passesFor(WorkloadKind kind, int seconds, std::size_t requests_per_pass);

RunReport runBenchmark(const RunOptions& options);

/** `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`. */
std::string resultJson(const RunReport& report);
/** The metadata object, one line. */
std::string metaJson(const RunReport& report);

} // namespace perfbench

#endif // PERFBENCH_RUNNER_HPP
