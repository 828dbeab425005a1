/**
 * @file
 * End-to-end benchmark: one workload, one seed, whole fixed-work
 * passes on a single thread, closed loop (the next request is sent when
 * the previous one returns).
 *
 * Usage:
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    [--trace-out PATH]
 *
 * Prints a metadata line (host block, reference-kernel times, raw
 * timings), then, as the last line, the result object with the
 * end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
 */
#include <cstdlib>
#include <iostream>
#include <string>

#include "runner.hpp"

namespace {

[[noreturn]] void
usage(const std::string& problem)
{
    std::cerr << "perfbench: " << problem << "\n"
              << "usage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH]\n"
              << "workloads:";
    for (const auto& name : perfbench::workloadNames())
        std::cerr << " " << name;
    std::cerr << "\n";
    std::exit(2);
}

long long
integerArg(const std::string& flag, const char* text)
{
    char* end = nullptr;
    const long long value = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0')
        usage(flag + " needs an integer, got '" + text + "'");
    return value;
}

} // namespace

int
main(int argc, char** argv)
{
    perfbench::RunOptions options;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const char* value = argv[++i];
        if (flag == "--workload") {
            const auto kind = perfbench::workloadByName(value);
            if (!kind)
                usage(std::string("unknown workload '") + value + "'");
            options.kind = *kind;
            have_workload = true;
        } else if (flag == "--seed") {
            options.seed =
                static_cast<std::uint64_t>(integerArg(flag, value));
        } else if (flag == "--seconds") {
            const long long seconds = integerArg(flag, value);
            if (seconds < 1 || seconds > 600)
                usage("--seconds must be in [1, 600]");
            options.seconds = static_cast<int>(seconds);
        } else if (flag == "--trace") {
            const long long trace = integerArg(flag, value);
            if (trace != 0 && trace != 1)
                usage("--trace must be 0 or 1");
            options.trace = trace == 1;
        } else if (flag == "--trace-out") {
            options.traceOut = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload)
        usage("--workload is required");

    perfbench::RunReport report;
    try {
        report = perfbench::runBenchmark(options);
    } catch (const std::exception& error) {
        std::cerr << "perfbench: " << error.what() << "\n";
        return 1;
    }
    for (const auto& error : report.errors)
        std::cerr << "perfbench: " << error << "\n";
    std::cout << perfbench::metaJson(report) << "\n"
              << perfbench::resultJson(report) << std::endl;
    return report.correct ? 0 : 1;
}
