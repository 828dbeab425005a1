#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "alloc_count.hpp"
#include "ir/printer.hpp"
#include "runner.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

const WorkloadKind kAllKinds[] = {
    WorkloadKind::kColdVerified, WorkloadKind::kHotReplay,
    WorkloadKind::kCorpusSchedule, WorkloadKind::kProgramCompile};

/** Everything a request list is made of, flattened for comparison. */
std::vector<std::string>
flatten(const Inputs& inputs)
{
    std::vector<std::string> out = inputs.texts;
    for (const auto& loop : inputs.loops)
        out.push_back(ims::ir::printLoop(loop));
    for (const auto& program : inputs.programs)
        out.push_back(program.name);
    for (const auto index : inputs.requests)
        out.push_back(std::to_string(index));
    out.push_back(std::to_string(inputs.dataSeed));
    return out;
}

std::map<std::string, double>
metricsOf(const RunReport& report)
{
    std::map<std::string, double> out;
    for (const auto& metric : report.metrics)
        out[metric.name] = metric.value;
    return out;
}

TEST(PerfbenchInputs, SameSeedGivesIdenticalRequestList)
{
    for (const WorkloadKind kind : kAllKinds) {
        SCOPED_TRACE(workloadName(kind));
        const Inputs a = makeInputs(kind, 42);
        const Inputs b = makeInputs(kind, 42);
        EXPECT_FALSE(a.requests.empty());
        EXPECT_EQ(flatten(a), flatten(b));
    }
}

TEST(PerfbenchInputs, DifferentSeedGivesDifferentInputs)
{
    for (const WorkloadKind kind : kAllKinds) {
        SCOPED_TRACE(workloadName(kind));
        EXPECT_NE(flatten(makeInputs(kind, 42)),
                  flatten(makeInputs(kind, 43)));
    }
}

TEST(PerfbenchInputs, ServiceWorkloadsShareTheirTexts)
{
    EXPECT_EQ(makeInputs(WorkloadKind::kColdVerified, 5).texts,
              makeInputs(WorkloadKind::kHotReplay, 5).texts);
}

TEST(PerfbenchRun, SameSeedGivesIdenticalExactMetrics)
{
    for (const WorkloadKind kind : kAllKinds) {
        SCOPED_TRACE(workloadName(kind));
        RunOptions options;
        options.kind = kind;
        options.seed = 3;
        options.setupRepeats = 1;
        options.passes = 3;
        const RunReport first = runBenchmark(options);
        const RunReport second = runBenchmark(options);
        ASSERT_TRUE(first.correct) << (first.errors.empty()
                                           ? ""
                                           : first.errors.front());
        EXPECT_TRUE(second.correct);
        EXPECT_EQ(first.failed, 0u);
        EXPECT_EQ(first.attempted, second.attempted);
        const auto a = metricsOf(first);
        const auto b = metricsOf(second);
        for (const char* exact : {"allocs_per_req", "ii_over_mii",
                                  "code_cycles_t17", "code_size_ops"}) {
            EXPECT_GT(a.at(exact), 0.0) << exact;
            EXPECT_EQ(a.at(exact), b.at(exact)) << exact;
        }
    }
}

TEST(PerfbenchRun, TracedPathMatchesEveryFacade)
{
    for (const WorkloadKind kind : kAllKinds) {
        SCOPED_TRACE(workloadName(kind));
        RunOptions options;
        options.kind = kind;
        options.seed = 4;
        options.trace = true;
        options.passes = 1;
        const RunReport report = runBenchmark(options);
        EXPECT_TRUE(report.correct) << (report.errors.empty()
                                            ? ""
                                            : report.errors.front());
        EXPECT_EQ(report.failed, 0u);
        const auto metrics = metricsOf(report);
        double shares = 0.0;
        for (int l = 0; l < kLayerCount; ++l) {
            const std::string layer = layerName(static_cast<Layer>(l));
            shares += metrics.at(layer + ".self_share");
        }
        EXPECT_GT(shares, 0.5);
        EXPECT_LE(shares, 1.0);
        EXPECT_TRUE(metrics.count("trace.uncovered_share"));
        EXPECT_TRUE(metrics.count("trace.overhead"));
    }
}

TEST(PerfbenchStats, PercentileIsNearestRank)
{
    std::vector<double> values(1000);
    std::iota(values.begin(), values.end(), 1.0);
    EXPECT_EQ(percentile(values, 0.99), 990.0);
    EXPECT_EQ(percentile(values, 0.50), 500.0);
    EXPECT_EQ(samplesBeyond(values.size(), 0.99), 10u);
}

TEST(PerfbenchStats, PercentileNeedsTenSamplesBeyond)
{
    std::vector<double> values(999);
    std::iota(values.begin(), values.end(), 1.0);
    EXPECT_EQ(samplesBeyond(values.size(), 0.99), 9u);
    EXPECT_THROW(percentile(values, 0.99), std::invalid_argument);
    EXPECT_NO_THROW(percentile(values, 0.50));
}

TEST(PerfbenchStats, Median)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(PerfbenchStats, NormalizationScalesToTheNominalReference)
{
    // The host ran the reference at twice its nominal time: the host was
    // half as fast, so the work is reported at half its measured time.
    EXPECT_DOUBLE_EQ(normalizeSeconds(2.0, 0.020, 0.010), 1.0);
    EXPECT_DOUBLE_EQ(normalizeSeconds(2.0, 0.010, 0.010), 2.0);
    EXPECT_THROW(normalizeSeconds(1.0, 0.0, 0.010), std::invalid_argument);
}

TEST(PerfbenchTrace, SelfAllocationsExcludeChildren)
{
    Tracer tracer;
    std::unique_ptr<int> a;
    std::unique_ptr<int> b;
    std::unique_ptr<int> c;
    tracer.request([&] {
        tracer.span(Layer::kGraphBuild, [&] {
            a = std::make_unique<int>(1);
            tracer.span(Layer::kGraphScc, [&] {
                b = std::make_unique<int>(2);
                c = std::make_unique<int>(3);
            });
        });
    });
    const TraceSummary summary = tracer.summarize();
    const auto& build = summary.layers[static_cast<int>(Layer::kGraphBuild)];
    const auto& scc = summary.layers[static_cast<int>(Layer::kGraphScc)];
    EXPECT_EQ(summary.requests, 1u);
    EXPECT_EQ(build.calls, 1u);
    EXPECT_EQ(build.selfAllocations, 1u);
    EXPECT_EQ(scc.selfAllocations, 2u);
    EXPECT_LE(summary.layerSelfSeconds, summary.tracedSeconds);
    ASSERT_EQ(tracer.spans().size(), 3u);
    EXPECT_EQ(tracer.spans()[2].parent, 1);
}

TEST(PerfbenchAllocations, CountsEveryOperatorNew)
{
    const std::uint64_t before = allocationCount();
    auto one = std::make_unique<int>(1);
    auto many = std::make_unique<int[]>(16);
    EXPECT_EQ(allocationCount() - before, 2u);
}

} // namespace
} // namespace perfbench
