#ifndef IMS_SCHED_II_SEARCH_HPP
#define IMS_SCHED_II_SEARCH_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sched/iterative_scheduler.hpp"
#include "support/counters.hpp"
#include "support/telemetry.hpp"

namespace ims::sched {

/**
 * The II-search knobs shared by every scheduling backend (each consumes
 * them through ScheduleOptions::search, so the budget/maxIiIncrease
 * knobs exist exactly once).
 */
struct IiSearchOptions
{
    /**
     * "BudgetRatio is the ratio of the maximum number of operation
     * scheduling steps attempted (before giving up and trying a larger
     * initiation interval) to the number of operations in the loop." The
     * paper's experiments use 6 for the quality study and recommend 2
     * (§4.3/§5); 2 is the default here.
     */
    double budgetRatio = 2.0;
    /** Safety bound on II above the MII before giving up entirely. */
    int maxIiIncrease = 4096;

    IiSearchOptions&
    withBudgetRatio(double ratio)
    {
        budgetRatio = ratio;
        return *this;
    }

    IiSearchOptions&
    withMaxIiIncrease(int increase)
    {
        maxIiIncrease = increase;
        return *this;
    }
};

/**
 * One schedule attempt at a fixed candidate II. `counters` is the
 * attempt's *own* batched counter delta; `status` reports *why* the
 * attempt ended — in particular it distinguishes kInfeasible (this II is
 * proven impossible; re-trying with a larger budget is pointless) from
 * kBudgetExhausted (undecided).
 */
struct IiAttemptOutcome
{
    std::optional<ScheduleResult> schedule;
    AttemptStatus status = AttemptStatus::kBudgetExhausted;
    support::Counters counters;
};

/** Callback scheduling one candidate II. */
using IiAttemptFn = std::function<IiAttemptOutcome(int ii)>;

/** One attempted candidate II, for telemetry. */
struct IiAttemptRecord
{
    int ii = 0;
    /** Why the attempt ended (kScheduled iff it found a schedule). */
    AttemptStatus status = AttemptStatus::kBudgetExhausted;
    /** Wall time of the attempt (nondeterministic; observability only). */
    double seconds = 0.0;
};

/** How the II search went. Everything except the timings is
 *  deterministic. */
struct IiSearchStats
{
    /**
     * Attempts whose candidate II was *proven* infeasible
     * (AttemptStatus::kInfeasible), as opposed to running out of budget.
     * For the exact backend this counts actual optimality proofs (see
     * sched/exact_scheduler.hpp). The heuristic backends prove it only
     * when some operation has no usable alternative at that II.
     */
    int attemptsProvenInfeasible = 0;
    /** End-to-end wall time of the search. */
    double wallSeconds = 0.0;
    /** Per-candidate records, in II order. */
    std::vector<IiAttemptRecord> records;
};

struct ModuloScheduleOutcome; // sched/schedule.hpp

/**
 * The shared Figure-2 outer loop: try II = mii, mii+1, ...,
 * mii + options.maxIiIncrease in turn and stop at the first feasible
 * one. The attempts are folded into one ModuloScheduleOutcome — counters
 * flushed into `counters`, one Phase::kIiAttempt sample per attempt
 * replayed into `telemetry` in II order, §4.3 budget accounting (every
 * failed attempt bills its full budget; the winner bills the steps it
 * used). An exception from `attempt` propagates with neither folded.
 *
 * Every backend behind sched::schedule() (iterative, slack, exact) is a
 * thin wrapper over this driver; they differ only in the attempt
 * callback and the exhaustion message.
 *
 * @throws support::Error for a non-positive or non-finite budgetRatio
 *         or a negative maxIiIncrease, and support::CodedError (code
 *         "sched.ii_exhausted", message built lazily from
 *         `exhausted_message`) when every candidate fails.
 */
ModuloScheduleOutcome
runIiSearch(const IiSearchOptions& options, int res_mii, int mii,
            std::int64_t budget, const IiAttemptFn& attempt,
            support::Counters* counters, support::TelemetrySink* telemetry,
            const std::function<std::string()>& exhausted_message);

} // namespace ims::sched

#endif // IMS_SCHED_II_SEARCH_HPP
