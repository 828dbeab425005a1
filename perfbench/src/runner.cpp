#include "runner.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "alloc_count.hpp"
#include "host_ref.hpp"
#include "stats.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double>(end - start).count();
}

/**
 * Approximate wall time of one untraced pass on the reference host, by
 * workload. Only used to turn --seconds into a fixed pass count, so the
 * same (seed, seconds) always runs exactly the same work.
 */
double
nominalPassSeconds(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::kColdVerified:
        return 0.33;
    case WorkloadKind::kHotReplay:
        return 0.40;
    case WorkloadKind::kCorpusSchedule:
        return 0.45;
    case WorkloadKind::kProgramCompile:
        return 0.32;
    }
    return 0.5;
}

constexpr int kMinPasses = 5;
/**
 * Timed work between two host-reference runs. One reference run is too
 * noisy to scale a pass by, so a pass is scaled by the mean of the runs
 * spread through it, which also follows speed changes within the pass.
 */
constexpr double kRefEverySeconds = 0.005;
/** Reference runs averaged for a timing not interleaved with runs. */
constexpr int kRefRunsPerSample = 16;
/** A p99 needs ten samples above it. */
constexpr std::size_t kMinLatencySamples = 1000;

std::string
number(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buffer[64];
    const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
    return std::string(buffer, result.ptr);
}

std::string
quoted(const std::string& text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            out += ' ';
        else
            out += c;
    }
    return out + "\"";
}

double
meanHostReference(int runs)
{
    double sum = 0.0;
    for (int i = 0; i < runs; ++i)
        sum += runHostReference();
    return sum / runs;
}

double
mean(const std::vector<double>& values)
{
    double sum = 0.0;
    for (const double value : values)
        sum += value;
    return sum / static_cast<double>(values.size());
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Exact per-pass sums: any difference between passes is a defect. */
struct PassTotals
{
    std::uint64_t allocations = 0;
    double logIiOverMii = 0.0;
    long long cycles = 0;
    long long codeOps = 0;

    bool operator==(const PassTotals&) const = default;
};

void
recordOutcome(const RequestOutcome& outcome, PassTotals& totals,
              RunReport& report)
{
    ++report.attempted;
    if (!outcome.failure.empty()) {
        ++report.failed;
        if (report.errors.size() < 5)
            report.errors.push_back(outcome.failure);
        return;
    }
    totals.logIiOverMii += std::log(static_cast<double>(outcome.ii) /
                                    static_cast<double>(outcome.mii));
    totals.cycles += outcome.cycles;
    totals.codeOps += outcome.codeOps;
}

void
addHostBlock(RunReport& report, const RunOptions& options)
{
    report.meta.emplace_back("workload", quoted(workloadName(options.kind)));
    report.meta.emplace_back("seed", std::to_string(options.seed));
    report.meta.emplace_back("seconds", std::to_string(options.seconds));
    report.meta.emplace_back("nproc",
                             std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
    report.meta.emplace_back("compiler", quoted(std::string("g++ ") +
                                                __VERSION__));
    report.meta.emplace_back("build_type", quoted(PERFBENCH_BUILD_TYPE));
    report.meta.emplace_back("nominal_ref_s", number(kNominalRefSeconds));
}

/** Untraced run: the end-to-end metrics. */
RunReport
runEndToEnd(const RunOptions& options)
{
    RunReport report;
    addHostBlock(report, options);

    std::unique_ptr<Workload> workload;
    std::vector<double> setup_raw;
    std::vector<double> setup_norm;
    for (int k = 0; k < std::max(1, options.setupRepeats); ++k) {
        workload.reset();
        const auto start = Clock::now();
        workload = setUpWorkload(options.kind, options.seed);
        const double raw = secondsBetween(start, Clock::now());
        const double ref = meanHostReference(kRefRunsPerSample);
        setup_raw.push_back(raw);
        setup_norm.push_back(normalizeSeconds(raw, ref, kNominalRefSeconds));
    }

    const std::size_t n = workload->requestCount();
    const int passes = options.passes > 0
                           ? options.passes
                           : passesFor(options.kind, options.seconds, n);

    // Untimed warm-up pass: lazy statics, first-touch page faults.
    workload->beginPass();
    for (std::size_t i = 0; i < n; ++i) {
        workload->call(i);
        workload->finish(i);
    }

    std::vector<double> refs;
    std::vector<double> norm_rps;
    std::vector<double> raw_rps;
    std::vector<double> norm_latency;
    std::vector<double> raw_latency;
    norm_latency.reserve(n * static_cast<std::size_t>(passes));
    raw_latency.reserve(n * static_cast<std::size_t>(passes));
    std::vector<double> pass_latency(n);
    std::vector<double> pass_refs;
    std::vector<PassTotals> totals(static_cast<std::size_t>(passes));

    for (int p = 0; p < passes; ++p) {
        workload->beginPass();
        PassTotals& pass = totals[static_cast<std::size_t>(p)];
        pass_refs.clear();
        double busy = 0.0;
        double since_ref = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t allocs_before = allocationCount();
            const auto start = Clock::now();
            workload->call(i);
            const auto end = Clock::now();
            pass.allocations += allocationCount() - allocs_before;
            pass_latency[i] = secondsBetween(start, end);
            busy += pass_latency[i];
            since_ref += pass_latency[i];
            recordOutcome(workload->finish(i), pass, report);
            if (since_ref >= kRefEverySeconds) {
                pass_refs.push_back(runHostReference());
                since_ref = 0.0;
            }
        }
        pass_refs.push_back(runHostReference());
        refs.insert(refs.end(), pass_refs.begin(), pass_refs.end());
        const double ref = mean(pass_refs);
        raw_rps.push_back(static_cast<double>(n) / busy);
        norm_rps.push_back(static_cast<double>(n) /
                           normalizeSeconds(busy, ref, kNominalRefSeconds));
        for (const double latency : pass_latency) {
            raw_latency.push_back(latency);
            norm_latency.push_back(
                normalizeSeconds(latency, ref, kNominalRefSeconds));
        }
    }

    for (std::size_t p = 1; p < totals.size(); ++p) {
        if (!(totals[p] == totals[0])) {
            report.correct = false;
            report.errors.push_back(
                "self-check: pass " + std::to_string(p) +
                " differs from pass 0 in an exact count (allocations " +
                std::to_string(totals[p].allocations) + " vs " +
                std::to_string(totals[0].allocations) + ")");
            break;
        }
    }

    const double requests = static_cast<double>(n);
    const PassTotals& exact = totals[0];
    report.metrics = {
        {"norm_throughput_rps", median(norm_rps), "1/s"},
        {"norm_latency_p50_ms", percentile(norm_latency, 0.50) * 1e3, "ms"},
        {"norm_latency_p99_ms", percentile(norm_latency, 0.99) * 1e3, "ms"},
        {"setup_s", median(setup_norm), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"allocs_per_req", static_cast<double>(exact.allocations) / requests,
         "count"},
        {"ii_over_mii", std::exp(exact.logIiOverMii / requests), "ratio"},
        {"code_cycles_t17", static_cast<double>(exact.cycles), "cycles"},
        {"code_size_ops", static_cast<double>(exact.codeOps) / requests,
         "ops"},
    };

    report.meta.emplace_back("passes", std::to_string(passes));
    report.meta.emplace_back("requests_per_pass", std::to_string(n));
    report.meta.emplace_back(
        "latency_samples_beyond_p99",
        std::to_string(samplesBeyond(norm_latency.size(), 0.99)));
    report.meta.emplace_back("host_ref_runs", std::to_string(refs.size()));
    report.meta.emplace_back("host_ref_median_s", number(median(refs)));
    report.meta.emplace_back(
        "host_ref_min_s", number(*std::min_element(refs.begin(), refs.end())));
    report.meta.emplace_back(
        "host_ref_max_s", number(*std::max_element(refs.begin(), refs.end())));
    report.meta.emplace_back("raw_throughput_rps", number(median(raw_rps)));
    report.meta.emplace_back("raw_latency_p50_ms",
                             number(percentile(raw_latency, 0.50) * 1e3));
    report.meta.emplace_back("raw_latency_p99_ms",
                             number(percentile(raw_latency, 0.99) * 1e3));
    report.meta.emplace_back("raw_setup_s", number(median(setup_raw)));
    return report;
}

/** Traced run: the recomposed path per request, the per-layer metrics. */
RunReport
runTraced(const RunOptions& options)
{
    RunReport report;
    addHostBlock(report, options);

    std::unique_ptr<Workload> workload =
        setUpWorkload(options.kind, options.seed);
    const std::size_t n = workload->requestCount();
    // Each traced request also makes the facade call it is checked
    // against and renders both listings, so a traced run takes a third of
    // the passes for about the same time.
    const int passes =
        options.passes > 0
            ? options.passes
            : std::max(2, passesFor(options.kind, options.seconds, n) / 3);

    workload->prepareTrace();
    {
        Tracer warmup;
        TraceCounts ignored;
        workload->beginPass();
        for (std::size_t i = 0; i < n; ++i) {
            workload->call(i);
            workload->traced(i, warmup, ignored);
            workload->finish(i);
        }
    }

    Tracer tracer;
    TraceCounts counts;
    double facade_seconds = 0.0;
    std::vector<double> refs;
    for (int p = 0; p < passes; ++p) {
        workload->beginPass();
        PassTotals pass;
        for (std::size_t i = 0; i < n; ++i) {
            // Alternate which path runs first, so neither always finds
            // the request's data already in the CPU caches.
            const bool traced_first = i % 2 == 1;
            Signature recomposed;
            if (traced_first)
                recomposed = workload->traced(i, tracer, counts);
            const auto start = Clock::now();
            workload->call(i);
            facade_seconds += secondsBetween(start, Clock::now());
            const Signature facade = workload->facadeSignature();
            if (!traced_first)
                recomposed = workload->traced(i, tracer, counts);
            RequestOutcome outcome = workload->finish(i);
            if (outcome.failure.empty() && !(facade == recomposed))
                outcome.failure = "traced layer path differs from the facade "
                                  "on request " +
                                  std::to_string(i);
            recordOutcome(outcome, pass, report);
        }
        refs.push_back(meanHostReference(kRefRunsPerSample));
    }

    const TraceSummary summary = tracer.summarize();
    const double scale = kNominalRefSeconds / median(refs);
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    for (int l = 0; l < kLayerCount; ++l) {
        const LayerTotals& layer = summary.layers[l];
        const std::string name = layerName(static_cast<Layer>(l));
        const double calls = static_cast<double>(layer.calls);
        report.metrics.push_back(
            {name + ".calls", calls / passes, "count"});
        report.metrics.push_back(
            {name + ".self_share",
             ratio(layer.selfSeconds, summary.tracedSeconds), "ratio"});
        report.metrics.push_back(
            {name + ".self_us", ratio(layer.selfSeconds, calls) * 1e6 * scale,
             "us"});
        report.metrics.push_back(
            {name + ".allocs_per_call",
             ratio(static_cast<double>(layer.selfAllocations), calls),
             "count"});
    }
    report.metrics.push_back(
        {"service.cache_lookup.hit_ratio",
         ratio(static_cast<double>(counts.cacheHits),
               static_cast<double>(counts.cacheLookups)),
         "ratio"});
    report.metrics.push_back(
        {"sched.schedule.attempts_per_loop",
         ratio(static_cast<double>(counts.attempts),
               static_cast<double>(counts.scheduledLoops)),
         "count"});
    report.metrics.push_back(
        {"sched.schedule.steps_per_op",
         ratio(static_cast<double>(counts.steps),
               static_cast<double>(counts.scheduledOps)),
         "count"});
    report.metrics.push_back(
        {"mii.min_dist.inner_steps_per_loop",
         ratio(static_cast<double>(counts.minDistInnerSteps),
               static_cast<double>(counts.scheduledLoops)),
         "count"});
    report.metrics.push_back(
        {"trace.uncovered_share",
         ratio(facade_seconds - summary.layerSelfSeconds, facade_seconds),
         "ratio"});
    report.metrics.push_back(
        {"trace.overhead",
         ratio(summary.tracedSeconds, facade_seconds) - 1.0, "ratio"});

    report.meta.emplace_back("passes", std::to_string(passes));
    report.meta.emplace_back("requests_per_pass", std::to_string(n));
    report.meta.emplace_back("spans", std::to_string(tracer.spans().size()));
    report.meta.emplace_back("host_ref_median_s", number(median(refs)));
    report.meta.emplace_back("facade_s", number(facade_seconds));
    report.meta.emplace_back("traced_s", number(summary.tracedSeconds));

    if (!options.traceOut.empty()) {
        std::ofstream out(options.traceOut);
        tracer.write(out);
        if (!out)
            throw std::runtime_error("cannot write spans to " +
                                     options.traceOut);
    }
    return report;
}

} // namespace

int
passesFor(WorkloadKind kind, int seconds, std::size_t requests_per_pass)
{
    const int by_time = static_cast<int>(
        std::ceil(seconds / nominalPassSeconds(kind)));
    const int by_samples = static_cast<int>(
        (kMinLatencySamples + requests_per_pass - 1) / requests_per_pass);
    return std::max({kMinPasses, by_time, by_samples});
}

RunReport
runBenchmark(const RunOptions& options)
{
    RunReport report = options.trace ? runTraced(options)
                                     : runEndToEnd(options);
    if (report.failed > 0)
        report.correct = false;
    return report;
}

std::string
resultJson(const RunReport& report)
{
    std::ostringstream out;
    out << "{\"correct\": " << (report.correct ? "true" : "false")
        << ", \"attempted\": " << report.attempted
        << ", \"failed\": " << report.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric& metric = report.metrics[i];
        out << (i ? ", " : "") << quoted(metric.name)
            << ": {\"value\": " << number(metric.value)
            << ", \"unit\": " << quoted(metric.unit) << "}";
    }
    out << "}}";
    return out.str();
}

std::string
metaJson(const RunReport& report)
{
    std::ostringstream out;
    out << "{\"perfbench_meta\": {";
    for (std::size_t i = 0; i < report.meta.size(); ++i)
        out << (i ? ", " : "") << quoted(report.meta[i].first) << ": "
            << report.meta[i].second;
    out << "}}";
    return out.str();
}

} // namespace perfbench
