/**
 * @file
 * Linear vs racing II search on hard-II workloads.
 *
 * "Hard II" means the lowest feasible II sits well above the MII, so the
 * linear search burns a full budget per failed candidate before reaching
 * the winner — exactly the sequential tail the racing strategy overlaps.
 * The workloads are self-calibrated: a fixed-seed stream of fuzz-profile
 * loops is scheduled on the scalar-toy machine (its contention pushes
 * feasible IIs above the MII) and the first loops needing >= 5 linear
 * attempts are kept and unrolled into multi-hundred-op bodies.
 *
 * Two gates:
 *
 *  1. **Identity** (always enforced): every racing run, at every thread
 *     count, must produce the same (II, schedule hash, attempts,
 *     totalSteps) as the linear search. A violation is a determinism bug
 *     and fails the bench regardless of timing.
 *  2. **Speedup** (hardware-gated): the geometric-mean racing speedup at
 *     the gated thread count must reach --min-speedup (default 1.5).
 *     Enforced only when std::thread::hardware_concurrency() covers the
 *     gated thread count — on smaller hosts the gate is reported as
 *     skipped (the JSON records the core count so readers can tell).
 *
 * Usage:
 *   bench_ii_search [--out PATH] [--threads a,b,c] [--gate-threads N]
 *                   [--min-speedup X] [--repeats N] [--quick]
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "machine/machines.hpp"
#include "support/error.hpp"
#include "sched/schedule.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "transform/unroll.hpp"
#include "workloads/random_loops.hpp"

namespace {

using namespace ims;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** FNV-1a over the schedule's (II, times, alternatives). */
std::uint64_t
scheduleHash(const sched::ScheduleResult& schedule)
{
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t value) {
        h ^= value;
        h *= 1099511628211ULL;
    };
    mix(static_cast<std::uint64_t>(schedule.ii));
    for (std::size_t v = 0; v < schedule.times.size(); ++v) {
        mix(static_cast<std::uint64_t>(schedule.times[v]));
        mix(static_cast<std::uint64_t>(schedule.alternatives[v]));
    }
    return h;
}

std::vector<int>
parseThreadList(const std::string& text)
{
    std::vector<int> threads;
    std::string item;
    for (const char c : text + ",") {
        if (c == ',') {
            if (!item.empty()) {
                threads.push_back(std::atoi(item.c_str()));
                item.clear();
            }
        } else {
            item += c;
        }
    }
    return threads;
}

/**
 * Fixed-seed calibration: walk the fuzz-profile loop stream on the
 * scalar-toy machine and keep the first `want` loops whose linear search
 * needs at least `min_attempts` candidate IIs, then unroll them so every
 * failed attempt is worth overlapping.
 */
std::vector<ir::Loop>
calibrateWorkloads(const machine::MachineModel& machine, int want,
                   int min_attempts, int unroll)
{
    support::Rng rng(1);
    const auto profile = workloads::fuzzProfile();
    std::vector<ir::Loop> hard;
    constexpr int kMaxCandidates = 600;
    for (int i = 0;
         i < kMaxCandidates && static_cast<int>(hard.size()) < want; ++i) {
        auto loop = workloads::generateLoop(
            rng, "hard_" + std::to_string(i), profile);
        try {
            const auto outcome = sched::schedule(loop, machine);
            if (outcome.attempts < min_attempts)
                continue;
        } catch (const support::Error&) {
            continue;
        }
        hard.push_back(transform::unrollLoop(loop, unroll));
    }
    return hard;
}

struct Measurement
{
    std::string strategy; // "linear" or "racing_tN"
    int threads = 1;
    double wallSeconds = 0.0;    // summed over repeats
    double searchSeconds = 0.0;  // strategy-reported, summed
    double speedup = 1.0;        // linear wall / this wall
};

struct WorkloadResult
{
    std::string name;
    int ops = 0;
    int mii = 0;
    int ii = 0;
    int attempts = 0;
    long long totalSteps = 0;
    std::uint64_t hash = 0;
    std::vector<Measurement> measurements;
};

} // namespace

int
main(int argc, char** argv)
{
    std::string out_path = "BENCH_ii_search.json";
    std::vector<int> thread_counts = {2, 4, 8};
    int gate_threads = 8;
    double min_speedup = 1.5;
    int repeats = 30;
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out_path = argv[++i];
        else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
            thread_counts = parseThreadList(argv[++i]);
        else if (std::strcmp(argv[i], "--gate-threads") == 0 && i + 1 < argc)
            gate_threads = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc)
            min_speedup = std::atof(argv[++i]);
        else if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc)
            repeats = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else {
            std::cerr << "usage: bench_ii_search [--out PATH] "
                         "[--threads a,b,c] [--gate-threads N] "
                         "[--min-speedup X] [--repeats N] [--quick]\n";
            return 2;
        }
    }
    if (quick)
        repeats = std::max(1, repeats / 10);

    const unsigned cores = std::thread::hardware_concurrency();
    const auto machine = machine::scalarToy();

    std::cout << "calibrating hard-II workloads (feasible II >= MII+4) "
                 "...\n";
    const auto workloads = calibrateWorkloads(
        machine, /*want=*/quick ? 3 : 5, /*min_attempts=*/5,
        /*unroll=*/quick ? 4 : 8);
    if (workloads.empty()) {
        std::cerr << "bench_ii_search: calibration found no hard-II "
                     "workloads\n";
        return 1;
    }

    int identity_violations = 0;
    std::vector<WorkloadResult> results;
    for (const auto& loop : workloads) {
        WorkloadResult result;
        result.name = loop.name();
        result.ops = loop.size();

        // Linear reference (also warms the allocator caches).
        {
            sched::ScheduleOptions options;
            Measurement m;
            m.strategy = "linear";
            const auto start = Clock::now();
            for (int r = 0; r < repeats; ++r) {
                const auto outcome =
                    sched::schedule(loop, machine, options);
                m.searchSeconds += outcome.search.wallSeconds;
                result.mii = outcome.mii;
                result.ii = outcome.schedule.ii;
                result.attempts = outcome.attempts;
                result.totalSteps = outcome.totalSteps;
                result.hash = scheduleHash(outcome.schedule);
            }
            m.wallSeconds = secondsSince(start);
            result.measurements.push_back(std::move(m));
        }
        const double linear_wall = result.measurements[0].wallSeconds;

        for (const int threads : thread_counts) {
            sched::ScheduleOptions options;
            options.search.withKind(sched::IiSearchKind::kRacing)
                .withThreads(threads);
            Measurement m;
            m.strategy = "racing_t" + std::to_string(threads);
            m.threads = threads;
            const auto start = Clock::now();
            for (int r = 0; r < repeats; ++r) {
                const auto outcome =
                    sched::schedule(loop, machine, options);
                m.searchSeconds += outcome.search.wallSeconds;
                // Identity gate: bit-identical to the linear search, on
                // every run, at every thread count.
                if (outcome.schedule.ii != result.ii ||
                    scheduleHash(outcome.schedule) != result.hash ||
                    outcome.attempts != result.attempts ||
                    outcome.totalSteps != result.totalSteps) {
                    std::cerr << "identity violation: " << result.name
                              << " with " << m.strategy << " run " << r
                              << ": II " << outcome.schedule.ii << " vs "
                              << result.ii << ", attempts "
                              << outcome.attempts << " vs "
                              << result.attempts << "\n";
                    ++identity_violations;
                }
            }
            m.wallSeconds = secondsSince(start);
            m.speedup = linear_wall / std::max(m.wallSeconds, 1e-12);
            result.measurements.push_back(std::move(m));
        }

        results.push_back(std::move(result));
    }

    support::TextTable table(
        "II search: linear vs racing on hard-II workloads (" +
        machine.name() + ", " + std::to_string(repeats) + " repeats, " +
        std::to_string(cores) + " cores)");
    std::vector<std::string> header = {"workload", "ops", "MII", "II",
                                       "attempts", "linear ms"};
    for (const int threads : thread_counts)
        header.push_back("racing t" + std::to_string(threads));
    table.addHeader(header);
    for (const auto& r : results) {
        std::vector<std::string> row = {
            r.name,
            std::to_string(r.ops),
            std::to_string(r.mii),
            std::to_string(r.ii),
            std::to_string(r.attempts),
            support::formatDouble(1e3 * r.measurements[0].wallSeconds, 2)};
        for (std::size_t i = 1; i < r.measurements.size(); ++i)
            row.push_back(
                support::formatDouble(r.measurements[i].speedup, 2) + "x");
        table.addRow(row);
    }
    table.print(std::cout);

    // Geometric-mean speedup per thread count.
    std::vector<double> geomean(thread_counts.size(), 1.0);
    for (std::size_t t = 0; t < thread_counts.size(); ++t) {
        double log_sum = 0.0;
        for (const auto& r : results)
            log_sum += std::log(r.measurements[t + 1].speedup);
        geomean[t] = std::exp(log_sum / results.size());
        std::cout << "geomean speedup at " << thread_counts[t]
                  << " threads: "
                  << support::formatDouble(geomean[t], 2) << "x\n";
    }

    // Speedup gate, hardware-permitting.
    bool gate_enforced = false;
    bool gate_passed = true;
    for (std::size_t t = 0; t < thread_counts.size(); ++t) {
        if (thread_counts[t] != gate_threads)
            continue;
        if (cores >= static_cast<unsigned>(gate_threads)) {
            gate_enforced = true;
            gate_passed = geomean[t] >= min_speedup;
            std::cout << "speedup gate at " << gate_threads << " threads: "
                      << support::formatDouble(geomean[t], 2) << "x vs "
                      << support::formatDouble(min_speedup, 2)
                      << "x floor: "
                      << (gate_passed ? "passed" : "FAILED") << "\n";
        } else {
            std::cout << "speedup gate skipped (" << cores
                      << " cores < " << gate_threads
                      << " gated threads; identity still enforced)\n";
        }
    }

    {
        std::ofstream out(out_path);
        out << "{\n  \"schema\": \"ims.bench_ii_search.v3\",\n"
            << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
            << "  \"cores\": " << cores << ",\n"
            << "  \"repeats\": " << repeats << ",\n"
            << "  \"min_speedup\": " << min_speedup << ",\n"
            << "  \"gate_threads\": " << gate_threads << ",\n"
            << "  \"gate_enforced\": " << (gate_enforced ? "true" : "false")
            << ",\n"
            << "  \"identity_violations\": " << identity_violations
            << ",\n  \"workloads\": [\n";
        for (std::size_t i = 0; i < results.size(); ++i) {
            const auto& r = results[i];
            out << "    {\"name\": \"" << r.name << "\", \"ops\": "
                << r.ops << ", \"mii\": " << r.mii << ", \"ii\": " << r.ii
                << ", \"attempts\": " << r.attempts << ", \"hash\": \""
                << r.hash << "\", \"measurements\": [";
            for (std::size_t m = 0; m < r.measurements.size(); ++m) {
                const auto& s = r.measurements[m];
                out << (m == 0 ? "" : ", ") << "{\"strategy\": \""
                    << s.strategy << "\", \"threads\": " << s.threads
                    << ", \"wall_seconds\": " << s.wallSeconds
                    << ", \"speedup\": " << s.speedup << "}";
            }
            out << "]}" << (i + 1 < results.size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
    }
    std::cout << "wrote " << out_path << "\n";

    if (identity_violations != 0) {
        std::cerr << "bench_ii_search: " << identity_violations
                  << " identity violations (racing != linear)\n";
        return 1;
    }
    if (gate_enforced && !gate_passed)
        return 1;
    return 0;
}
