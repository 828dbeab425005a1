#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "sched/ii_search.hpp"
#include "sched/schedule.hpp"
#include "support/error.hpp"
#include "support/telemetry.hpp"

namespace {

using namespace ims;

const auto kNoMessage = [] { return std::string("no luck"); };

sched::IiAttemptOutcome
fakeAttempt(int ii, int first_feasible)
{
    sched::IiAttemptOutcome out; // status defaults to kBudgetExhausted
    out.counters.scheduleSteps = 10; // constant per-attempt delta
    if (ii >= first_feasible) {
        sched::ScheduleResult result;
        result.ii = ii;
        result.stepsUsed = 7;
        result.unschedules = 3;
        out.schedule = result;
        out.status = sched::AttemptStatus::kScheduled;
    }
    return out;
}

TEST(IiSearchTest, SearchRejectsBadOptions)
{
    const auto never = [](int) {
        ADD_FAILURE() << "no attempt may run on bad options";
        return sched::IiAttemptOutcome{};
    };
    const double inf = std::numeric_limits<double>::infinity();
    for (const double ratio :
         {0.0, -1.0, inf, std::numeric_limits<double>::quiet_NaN()}) {
        EXPECT_THROW(sched::runIiSearch(
                         sched::IiSearchOptions{}.withBudgetRatio(ratio), 1,
                         1, 10, never, nullptr, nullptr, kNoMessage),
                     support::Error)
            << ratio;
    }
    EXPECT_THROW(sched::runIiSearch(
                     sched::IiSearchOptions{}.withMaxIiIncrease(-1), 1, 1,
                     10, never, nullptr, nullptr, kNoMessage),
                 support::Error);
}

TEST(IiSearchTest, StopsAtTheFirstFeasibleIi)
{
    int calls = 0;
    support::Counters counters;
    support::TelemetryRecorder recorder;
    const auto outcome = sched::runIiSearch(
        sched::IiSearchOptions{}, 1, 2, 10,
        [&](int ii) {
            EXPECT_EQ(ii, 2 + calls);
            ++calls;
            return fakeAttempt(ii, /*first_feasible=*/5);
        },
        &counters, &recorder, kNoMessage);

    EXPECT_EQ(calls, 4); // 2, 3, 4 fail; 5 wins
    EXPECT_EQ(outcome.schedule.ii, 5);
    EXPECT_EQ(outcome.resMii, 1);
    EXPECT_EQ(outcome.mii, 2);
    EXPECT_EQ(outcome.attempts, 4);
    // §4.3: every failed attempt bills its full budget.
    EXPECT_EQ(outcome.totalSteps, 3 * 10 + 7);
    EXPECT_EQ(outcome.totalUnschedules, 3);
    EXPECT_EQ(counters.scheduleSteps, 4u * 10u);

    ASSERT_EQ(outcome.search.records.size(), 4u);
    const auto& phases = recorder.record().phases;
    ASSERT_EQ(phases.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(outcome.search.records[i].ii, 2 + i);
        EXPECT_EQ(outcome.search.records[i].status,
                  i == 3 ? sched::AttemptStatus::kScheduled
                         : sched::AttemptStatus::kBudgetExhausted);
        EXPECT_EQ(phases[i].phase, support::Phase::kIiAttempt);
        EXPECT_EQ(phases[i].detail, 2 + i);
        EXPECT_EQ(phases[i].succeeded, i == 3);
    }
}

TEST(IiSearchTest, ExhaustedSearchThrowsCodedError)
{
    support::Counters counters;
    try {
        sched::runIiSearch(
            sched::IiSearchOptions{}.withMaxIiIncrease(3), 2, 2, 10,
            [&](int ii) {
                return fakeAttempt(ii, /*first_feasible=*/1000);
            },
            &counters, nullptr, kNoMessage);
        FAIL() << "runIiSearch must throw on exhaustion";
    } catch (const support::CodedError& error) {
        EXPECT_EQ(error.code(), "sched.ii_exhausted");
        EXPECT_NE(std::string(error.what()).find("no luck"),
                  std::string::npos);
    }
    // Every candidate of the exhausted range was attempted and billed.
    EXPECT_EQ(counters.scheduleSteps, 4u * 10u);
}

TEST(IiSearchTest, AttemptExceptionLeavesTheSinksUntouched)
{
    support::Counters counters;
    support::TelemetryRecorder recorder;
    EXPECT_THROW(sched::runIiSearch(
                     sched::IiSearchOptions{}, 2, 2, 10,
                     [&](int ii) {
                         if (ii == 4)
                             throw support::Error("attempt failed");
                         return fakeAttempt(ii, /*first_feasible=*/9);
                     },
                     &counters, &recorder, kNoMessage),
                 support::Error);
    EXPECT_EQ(counters.scheduleSteps, 0u);
    EXPECT_TRUE(recorder.record().phases.empty());
}

} // namespace
