#include "sched/ii_search.hpp"

#include <chrono>
#include <cmath>
#include <utility>

#include "sched/schedule.hpp"
#include "support/error.hpp"

namespace ims::sched {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

} // namespace

ModuloScheduleOutcome
runIiSearch(const IiSearchOptions& options, int res_mii, int mii,
            std::int64_t budget, const IiAttemptFn& attempt,
            support::Counters* counters, support::TelemetrySink* telemetry,
            const std::function<std::string()>& exhausted_message)
{
    support::check(std::isfinite(options.budgetRatio) &&
                       options.budgetRatio > 0,
                   "BudgetRatio must be positive and finite");
    support::check(options.maxIiIncrease >= 0,
                   "maxIiIncrease must be non-negative");

    ModuloScheduleOutcome outcome;
    outcome.resMii = res_mii;
    outcome.mii = mii;
    outcome.budget = budget;
    IiSearchStats& stats = outcome.search;

    // Counter deltas and samples are held back until the search ends, so
    // an attempt that throws leaves the caller's sinks untouched.
    support::Counters searched;
    std::optional<ScheduleResult> winner;
    const auto search_start = std::chrono::steady_clock::now();
    for (int offset = 0; !winner && offset <= options.maxIiIncrease;
         ++offset) {
        const int ii = mii + offset;
        const auto attempt_start = std::chrono::steady_clock::now();
        IiAttemptOutcome tried = attempt(ii);
        searched += tried.counters;
        if (tried.status == AttemptStatus::kInfeasible)
            ++stats.attemptsProvenInfeasible;
        stats.records.push_back(
            {ii, tried.status, secondsSince(attempt_start)});
        winner = std::move(tried.schedule);
    }
    stats.wallSeconds = secondsSince(search_start);

    if (counters != nullptr)
        *counters += searched;
    if (telemetry != nullptr) {
        for (const IiAttemptRecord& record : stats.records) {
            support::PhaseSample sample;
            sample.phase = support::Phase::kIiAttempt;
            sample.detail = record.ii;
            sample.seconds = record.seconds;
            sample.succeeded = record.status == AttemptStatus::kScheduled;
            telemetry->onPhase(sample);
        }
    }

    const int attempts = static_cast<int>(stats.records.size());
    outcome.attempts = attempts;
    if (!winner.has_value()) {
        // The message is built only on this cold path; the code gives
        // the pipeliner's Diagnostic a stable machine-readable identity.
        throw support::CodedError("sched.ii_exhausted", exhausted_message());
    }

    // §4.3: "IterativeSchedule, on all but the last, successful
    // invocation, expends its entire budget each time."
    outcome.totalSteps = budget * (attempts - 1) + winner->stepsUsed;
    outcome.totalUnschedules = winner->unschedules;
    outcome.schedule = std::move(*winner);
    return outcome;
}

} // namespace ims::sched
