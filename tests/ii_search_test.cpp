#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <string>
#include <vector>

#include "graph/graph_builder.hpp"
#include "graph/scc.hpp"
#include "machine/cydra5.hpp"
#include "machine/machines.hpp"
#include "sched/ii_search.hpp"
#include "sched/attempt_feedback.hpp"
#include "sched/iterative_scheduler.hpp"
#include "sched/schedule.hpp"
#include "support/cancellation.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "workloads/kernels.hpp"
#include "workloads/random_loops.hpp"

namespace {

using namespace ims;

void
expectCountersEqual(const support::Counters& a, const support::Counters& b,
                    const std::string& context)
{
    EXPECT_EQ(a.sccEdgeVisits, b.sccEdgeVisits) << context;
    EXPECT_EQ(a.resMiiInspections, b.resMiiInspections) << context;
    EXPECT_EQ(a.minDistInnerSteps, b.minDistInnerSteps) << context;
    EXPECT_EQ(a.minDistInvocations, b.minDistInvocations) << context;
    EXPECT_EQ(a.heightRInnerSteps, b.heightRInnerSteps) << context;
    EXPECT_EQ(a.estartPredecessorVisits, b.estartPredecessorVisits)
        << context;
    EXPECT_EQ(a.estartIncrementalHits, b.estartIncrementalHits) << context;
    EXPECT_EQ(a.findTimeSlotProbes, b.findTimeSlotProbes) << context;
    EXPECT_EQ(a.scheduleSteps, b.scheduleSteps) << context;
    EXPECT_EQ(a.unscheduleSteps, b.unscheduleSteps) << context;
    EXPECT_EQ(a.mrtMaskProbes, b.mrtMaskProbes) << context;
    EXPECT_EQ(a.mrtSlotScans, b.mrtSlotScans) << context;
}

/** Everything a bit-identity claim covers: the schedule itself, the MII
 *  facts, and every statistic derived from the deterministic prefix. */
void
expectOutcomesIdentical(const sched::ModuloScheduleOutcome& a,
                        const sched::ModuloScheduleOutcome& b,
                        const std::string& context)
{
    EXPECT_EQ(a.schedule.ii, b.schedule.ii) << context;
    EXPECT_EQ(a.schedule.times, b.schedule.times) << context;
    EXPECT_EQ(a.schedule.alternatives, b.schedule.alternatives) << context;
    EXPECT_EQ(a.schedule.scheduleLength, b.schedule.scheduleLength)
        << context;
    EXPECT_EQ(a.schedule.stepsUsed, b.schedule.stepsUsed) << context;
    EXPECT_EQ(a.schedule.unschedules, b.schedule.unschedules) << context;
    EXPECT_EQ(a.resMii, b.resMii) << context;
    EXPECT_EQ(a.mii, b.mii) << context;
    EXPECT_EQ(a.attempts, b.attempts) << context;
    EXPECT_EQ(a.budget, b.budget) << context;
    EXPECT_EQ(a.totalSteps, b.totalSteps) << context;
    EXPECT_EQ(a.totalUnschedules, b.totalUnschedules) << context;
    EXPECT_EQ(a.scheduler, b.scheduler) << context;
    EXPECT_EQ(a.search.attemptsProvenInfeasible,
              b.search.attemptsProvenInfeasible)
        << context;
    ASSERT_EQ(a.search.records.size(), b.search.records.size()) << context;
    for (std::size_t i = 0; i < a.search.records.size(); ++i) {
        EXPECT_EQ(a.search.records[i].ii, b.search.records[i].ii)
            << context;
        EXPECT_EQ(a.search.records[i].feasible,
                  b.search.records[i].feasible)
            << context;
        EXPECT_EQ(a.search.records[i].status, b.search.records[i].status)
            << context;
    }
}

TEST(IiSearchTest, KindNamesRoundTrip)
{
    EXPECT_EQ(sched::iiSearchKindName(sched::IiSearchKind::kLinear),
              "linear");
    EXPECT_EQ(sched::iiSearchKindName(sched::IiSearchKind::kRacing),
              "racing");
    EXPECT_EQ(sched::iiSearchKindByName("linear"),
              sched::IiSearchKind::kLinear);
    EXPECT_EQ(sched::iiSearchKindByName("racing"),
              sched::IiSearchKind::kRacing);
    EXPECT_FALSE(sched::iiSearchKindByName("bogus").has_value());
}

TEST(IiSearchTest, SearchRejectsBadOptions)
{
    const auto never = [](int, int, const support::CancellationToken&) {
        ADD_FAILURE() << "no attempt may run on bad options";
        return sched::IiAttemptOutcome{};
    };
    const double inf = std::numeric_limits<double>::infinity();
    for (const double ratio :
         {0.0, -1.0, inf, std::numeric_limits<double>::quiet_NaN()}) {
        EXPECT_THROW(sched::searchIiRange(
                         sched::IiSearchOptions{}.withBudgetRatio(ratio), 1,
                         4, never),
                     support::Error)
            << ratio;
    }
    EXPECT_THROW(sched::searchIiRange(
                     sched::IiSearchOptions{}.withMaxIiIncrease(-1), 1, 4,
                     never),
                 support::Error);
}

TEST(IiSearchTest, PlannedWorkersFollowTheKind)
{
    EXPECT_EQ(sched::plannedWorkers(
                  sched::IiSearchOptions{}.withThreads(4), 100),
              1);
    const auto racing = sched::IiSearchOptions{}
                            .withKind(sched::IiSearchKind::kRacing)
                            .withThreads(4);
    EXPECT_EQ(sched::plannedWorkers(racing, 100), 4);
    // Never more workers than candidates, and at least one.
    EXPECT_EQ(sched::plannedWorkers(racing, 2), 2);
    EXPECT_EQ(sched::plannedWorkers(racing, 0), 1);
}

// ---------------------------------------------------------------------------
// Strategy-level behaviour with synthetic attempt callbacks.

sched::IiAttemptOutcome
fakeAttempt(int ii, int first_feasible)
{
    sched::IiAttemptOutcome out; // status defaults to kBudgetExhausted
    out.counters.scheduleSteps = 10; // constant per-attempt delta
    if (ii >= first_feasible) {
        sched::ScheduleResult result;
        result.ii = ii;
        result.stepsUsed = 7;
        out.schedule = result;
        out.status = sched::AttemptStatus::kScheduled;
    }
    return out;
}

TEST(IiSearchTest, RacingReturnsLowestFeasibleIiWithDeterministicPrefix)
{
    const auto result = sched::searchIiRange(
        sched::IiSearchOptions{}.withKind(sched::IiSearchKind::kRacing)
            .withThreads(4),
        3, 40, [&](int ii, int, const support::CancellationToken&) {
            return fakeAttempt(ii, /*first_feasible=*/7);
        });

    ASSERT_TRUE(result.schedule.has_value());
    EXPECT_EQ(result.schedule->ii, 7);
    EXPECT_EQ(result.searchedIis, 5); // 3,4,5,6 fail; 7 wins
    // Counter folds cover exactly the deterministic prefix, even if
    // speculative attempts above 7 also ran.
    EXPECT_EQ(result.counters.scheduleSteps, 5u * 10u);
    ASSERT_EQ(result.stats.records.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(result.stats.records[i].ii, 3 + i);
        EXPECT_EQ(result.stats.records[i].feasible, 3 + i == 7);
    }
    EXPECT_EQ(result.stats.strategy, "racing");
    EXPECT_GE(result.stats.attemptsStarted, result.searchedIis);
    EXPECT_EQ(result.stats.attemptsWasted,
              result.stats.attemptsStarted - result.searchedIis);
}

TEST(IiSearchTest, LinearStrategyStopsAtTheWinner)
{
    std::atomic<int> calls{0};
    const auto result = sched::searchIiRange(
        sched::IiSearchOptions{}, 2, 100,
        [&](int ii, int worker, const support::CancellationToken&) {
            ++calls;
            EXPECT_EQ(worker, 0);
            return fakeAttempt(ii, /*first_feasible=*/5);
        });
    ASSERT_TRUE(result.schedule.has_value());
    EXPECT_EQ(result.schedule->ii, 5);
    EXPECT_EQ(calls.load(), 4);
    EXPECT_EQ(result.stats.attemptsStarted, 4);
    EXPECT_EQ(result.stats.attemptsWasted, 0);
    EXPECT_EQ(result.stats.workers, 1);
    EXPECT_EQ(result.stats.strategy, "linear");
}

TEST(IiSearchTest, ExhaustedSearchThrowsCodedError)
{
    support::Counters counters;
    try {
        sched::runIiSearch(
            sched::IiSearchOptions{}.withMaxIiIncrease(3), 2, 2, 10,
            [&](int ii, int, const support::CancellationToken&) {
                return fakeAttempt(ii, /*first_feasible=*/1000);
            },
            &counters, nullptr, [] { return std::string("no luck"); });
        FAIL() << "runIiSearch must throw on exhaustion";
    } catch (const support::CodedError& error) {
        EXPECT_EQ(error.code(), "sched.ii_exhausted");
        EXPECT_NE(std::string(error.what()).find("no luck"),
                  std::string::npos);
    }
    // The whole exhausted range is the deterministic prefix.
    EXPECT_EQ(counters.scheduleSteps, 4u * 10u);
}

// ---------------------------------------------------------------------------
// Scheduler-level cancellation.

TEST(IiSearchTest, CancelledAttemptStopsBeforeSpendingBudget)
{
    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName("tridiag");
    const auto graph = graph::buildDepGraph(w.loop, machine);
    const auto sccs = graph::findSccs(graph);

    support::CancellationToken token;
    token.lowerCeiling(5); // a success at II 5 cancels any attempt above

    support::Counters counters;
    sched::IterativeScheduler scheduler(w.loop, machine, graph, sccs, {},
                                        &counters);
    sched::AttemptStatus status = sched::AttemptStatus::kScheduled;
    const auto result =
        scheduler.trySchedule(9, /*budget=*/1 << 20, &token, &status);

    // The token is polled at the top of every budget-loop iteration, so a
    // pre-cancelled attempt must give up within one scheduling step —
    // without touching the (huge) budget.
    EXPECT_FALSE(result.has_value());
    EXPECT_EQ(status, sched::AttemptStatus::kCancelled);
    EXPECT_LE(counters.scheduleSteps, 1u);

    // At or below the ceiling the same scheduler still succeeds.
    status = sched::AttemptStatus::kCancelled;
    const auto fine = scheduler.trySchedule(9, 1 << 20, nullptr, &status);
    EXPECT_TRUE(fine.has_value());
    EXPECT_EQ(status, sched::AttemptStatus::kScheduled);
}

TEST(IiSearchTest, CancellationTokenCeilingIsMonotonic)
{
    support::CancellationToken token;
    EXPECT_FALSE(token.cancelled(1000));
    token.lowerCeiling(10);
    token.lowerCeiling(20); // higher key must not raise the ceiling back
    EXPECT_EQ(token.ceiling(), 10);
    EXPECT_TRUE(token.cancelled(11));
    EXPECT_FALSE(token.cancelled(10));
    token.cancelAll();
    EXPECT_TRUE(token.cancelled(0));
}

// ---------------------------------------------------------------------------
// Bit-identity of racing vs linear on real scheduling problems.

sched::ModuloScheduleOutcome
scheduleWith(const ir::Loop& loop, const machine::MachineModel& machine,
             const sched::ScheduleOptions& options,
             support::Counters& counters)
{
    counters = {};
    return sched::schedule(loop, machine, options, &counters);
}

TEST(IiSearchTest, RacingMatchesLinearOnKernelCorpus)
{
    for (const auto& machine : {machine::cydra5(), machine::scalarToy()}) {
        for (const auto& w : workloads::kernelLibrary()) {
            sched::ScheduleOptions linear;
            support::Counters linear_counters;
            const auto expected =
                scheduleWith(w.loop, machine, linear, linear_counters);

            for (const int threads : {1, 4, 8}) {
                sched::ScheduleOptions racing;
                racing.search.withKind(sched::IiSearchKind::kRacing)
                    .withThreads(threads);
                support::Counters racing_counters;
                const auto got =
                    scheduleWith(w.loop, machine, racing, racing_counters);
                const std::string context =
                    machine.name() + "/" + w.loop.name() + " threads=" +
                    std::to_string(threads);
                expectOutcomesIdentical(expected, got, context);
                expectCountersEqual(linear_counters, racing_counters,
                                    context);
                EXPECT_EQ(got.search.strategy, "racing") << context;
            }
        }
    }
}

TEST(IiSearchTest, RacingMatchesLinearOnFuzzGeneratedLoops)
{
    const auto machine = machine::cydra5();
    support::Rng rng(20260806);
    const auto profile = workloads::fuzzProfile();
    int hard = 0; // loops whose winning II exceeded the MII
    for (int i = 0; i < 200; ++i) {
        const auto loop = workloads::generateLoop(
            rng, "fuzz_" + std::to_string(i), profile);

        sched::ScheduleOptions linear;
        support::Counters linear_counters;
        const auto expected =
            scheduleWith(loop, machine, linear, linear_counters);
        hard += expected.attempts > 1;

        for (const int threads : {1, 4, 8}) {
            sched::ScheduleOptions racing;
            racing.search.withKind(sched::IiSearchKind::kRacing)
                .withThreads(threads);
            support::Counters racing_counters;
            const auto got =
                scheduleWith(loop, machine, racing, racing_counters);
            const std::string context = loop.name() + " threads=" +
                                        std::to_string(threads);
            expectOutcomesIdentical(expected, got, context);
            expectCountersEqual(linear_counters, racing_counters, context);
        }
    }
    // The corpus must actually exercise multi-attempt searches, or the
    // equivalence above is vacuous for the racing-specific paths.
    EXPECT_GT(hard, 0);
}

TEST(IiSearchTest, RacingMatchesLinearWithRandomPriorities)
{
    // kRandom derives its permutation from (seed, ii), so an attempt's
    // result is a pure function of the candidate II — the property the
    // race's determinism rests on.
    const auto machine = machine::cydra5();
    for (const auto& w : workloads::kernelLibrary()) {
        sched::ScheduleOptions linear;
        linear.priority = sched::PriorityScheme::kRandom;
        linear.randomSeed = 99;
        support::Counters linear_counters;
        const auto expected =
            scheduleWith(w.loop, machine, linear, linear_counters);

        sched::ScheduleOptions racing = linear;
        racing.search.withKind(sched::IiSearchKind::kRacing).withThreads(4);
        support::Counters racing_counters;
        const auto got =
            scheduleWith(w.loop, machine, racing, racing_counters);
        expectOutcomesIdentical(expected, got, w.loop.name());
        expectCountersEqual(linear_counters, racing_counters,
                            w.loop.name());
    }
}

TEST(IiSearchTest, SlackSchedulerRacingMatchesLinear)
{
    const auto machine = machine::cydra5();
    for (const auto& w : workloads::kernelLibrary()) {
        const auto graph = graph::buildDepGraph(w.loop, machine);
        const auto sccs = graph::findSccs(graph);

        sched::ScheduleOptions linear;
        linear.strategy = sched::SchedulerStrategy::kSlack;
        support::Counters linear_counters;
        const auto expected = sched::schedule(
            w.loop, machine, graph, sccs, linear, &linear_counters);

        for (const int threads : {1, 4, 8}) {
            sched::ScheduleOptions racing = linear;
            racing.search.withKind(sched::IiSearchKind::kRacing)
                .withThreads(threads);
            support::Counters racing_counters;
            const auto got = sched::schedule(
                w.loop, machine, graph, sccs, racing, &racing_counters);
            const std::string context = "slack/" + w.loop.name() +
                                        " threads=" +
                                        std::to_string(threads);
            expectOutcomesIdentical(expected, got, context);
            expectCountersEqual(linear_counters, racing_counters, context);
        }
    }
}

} // namespace
