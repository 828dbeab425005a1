#ifndef IMS_SCHED_II_SEARCH_HPP
#define IMS_SCHED_II_SEARCH_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sched/iterative_scheduler.hpp"
#include "support/cancellation.hpp"
#include "support/counters.hpp"
#include "support/telemetry.hpp"

namespace ims::sched {

/**
 * How the outer loop of Figure 2 walks the candidate IIs. Both policies
 * return the *lowest feasible* II: linear tries mii, mii+1, ... strictly
 * sequentially; racing launches attempts for several candidate IIs
 * concurrently and cancels in-flight attempts above the lowest success.
 *
 * Racing is deterministic by construction — see docs/ALGORITHM.md, "II
 * search strategies": an attempt at a candidate II is a pure function of
 * the immutable inputs and the II itself (per-worker scheduler state,
 * per-attempt (seed, ii) RNG derivation), and no attempt below the
 * eventual winner can ever be cancelled, so the returned (ii, schedule)
 * — and every statistic derived from the deterministic prefix
 * [mii, winner] — is bit-identical to the linear search regardless of
 * thread count or timing.
 */
enum class IiSearchKind
{
    kLinear,
    kRacing,
};

/** Stable lowercase name ("linear", "racing"). */
std::string iiSearchKindName(IiSearchKind kind);

/** Inverse of iiSearchKindName; nullopt for unknown names. */
std::optional<IiSearchKind> iiSearchKindByName(std::string_view name);

/**
 * The II-search policy shared by the iterative and the slack modulo
 * schedulers (both consume it through their respective options structs,
 * so the budget/maxIiIncrease knobs exist exactly once).
 */
struct IiSearchOptions
{
    IiSearchKind kind = IiSearchKind::kLinear;
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
    /** Racing worker count; <= 0 means hardware concurrency. Ignored by
     *  the linear strategy. */
    int threads = 0;

    IiSearchOptions&
    withKind(IiSearchKind k)
    {
        kind = k;
        return *this;
    }

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

    IiSearchOptions&
    withThreads(int t)
    {
        threads = t;
        return *this;
    }
};

/** Stable lowercase name of an AttemptStatus ("scheduled", ...). */
std::string attemptStatusName(AttemptStatus status);

/**
 * One schedule attempt at a fixed candidate II, as seen by the search
 * strategy. `counters` is the attempt's *own* batched counter delta (the
 * strategy folds only the deterministic prefix into the search result);
 * `status` reports *why* the attempt ended — in particular it
 * distinguishes kInfeasible (this II is proven impossible; re-trying
 * with a larger budget is pointless) from kBudgetExhausted (undecided),
 * and kCancelled marks an attempt that abandoned work because the
 * token's ceiling dropped below its II mid-run.
 */
struct IiAttemptOutcome
{
    std::optional<ScheduleResult> schedule;
    AttemptStatus status = AttemptStatus::kBudgetExhausted;
    support::Counters counters;
};

/**
 * Callback scheduling one candidate II. `worker` is in
 * [0, plannedWorkers()); the search guarantees at most one concurrent
 * invocation per worker index, so per-worker mutable state (scheduler
 * buffers, counters) needs no locking. The token must be polled
 * cooperatively (IterativeScheduler::trySchedule does, once per
 * budget-loop iteration).
 */
using IiAttemptFn = std::function<IiAttemptOutcome(
    int ii, int worker, const support::CancellationToken& cancel)>;

/** One candidate II of the deterministic prefix, for telemetry. */
struct IiAttemptRecord
{
    int ii = 0;
    bool feasible = false;
    /** Why the attempt ended (kScheduled iff `feasible`). Deterministic:
     *  prefix attempts are never cancelled. */
    AttemptStatus status = AttemptStatus::kBudgetExhausted;
    /** Wall time of the attempt (nondeterministic; observability only). */
    double seconds = 0.0;
};

/**
 * How the II search itself went: strategy identity plus race
 * observability. Everything except `strategy`, `records` and
 * `attemptsProvenInfeasible` depends on thread timing — speculative
 * attempts above the winner may or may not have launched — and must not
 * feed anything that is compared bit-for-bit.
 */
struct IiSearchStats
{
    /** "linear" or "racing". */
    std::string strategy = "linear";
    /** Workers the search ran with. */
    int workers = 1;
    /** Attempts actually launched (>= the deterministic attempt count). */
    int attemptsStarted = 0;
    /** Attempts aborted mid-run by the cancellation token. */
    int attemptsCancelled = 0;
    /** Attempts launched above the winning II (discarded speculation). */
    int attemptsWasted = 0;
    /**
     * Deterministic-prefix attempts whose candidate II was *proven*
     * infeasible (AttemptStatus::kInfeasible), as opposed to running out
     * of budget. Deterministic, unlike the started/cancelled/wasted
     * trio; for the exact backend this counts actual optimality proofs
     * (see sched/exact_scheduler.hpp). The heuristic backends prove it
     * only when some operation has no usable alternative at that II.
     */
    int attemptsProvenInfeasible = 0;
    /** End-to-end wall time of the search. */
    double wallSeconds = 0.0;
    /** Summed per-attempt wall times (> wallSeconds measures overlap). */
    double cpuSeconds = 0.0;
    /** Per-candidate records for the deterministic prefix, in II order. */
    std::vector<IiAttemptRecord> records;
};

/** What searchIiRange() returns. */
struct IiSearchResult
{
    /** The winning schedule; nullopt when every candidate failed. */
    std::optional<ScheduleResult> schedule;
    /**
     * Length of the deterministic prefix: the number of candidate IIs
     * the equivalent linear search would have attempted
     * (winner - minIi + 1, or the whole range on exhaustion). This, the
     * schedule, `counters` and the deterministic fields of `stats` are
     * bit-identical across strategies and thread counts.
     */
    int searchedIis = 0;
    /** Counter deltas summed over the deterministic prefix only. */
    support::Counters counters;
    /** Strategy identity, prefix records and race observability. */
    IiSearchStats stats;
};

/**
 * Worker indices a search over `candidates` IIs uses under `options`: 1
 * for linear, the resolved thread count (capped at `candidates`) for
 * racing. The attempt callback sees `worker` < this value; callers
 * pre-size per-worker state with it.
 */
int plannedWorkers(const IiSearchOptions& options, int candidates);

/**
 * Search [minIi, maxIi] (inclusive) for the lowest feasible II under
 * options.kind, with deterministic results (see IiSearchKind).
 *
 * @throws support::Error for a non-positive budgetRatio or a negative
 *         maxIiIncrease.
 */
IiSearchResult searchIiRange(const IiSearchOptions& options, int minIi,
                             int maxIi, const IiAttemptFn& attempt);

struct ModuloScheduleOutcome; // sched/schedule.hpp

/**
 * The shared Figure-2 outer-loop driver: run `attempt` over the
 * candidate IIs [mii, mii + options.maxIiIncrease] under the strategy
 * selected by `options`, and fold the deterministic prefix into one
 * ModuloScheduleOutcome — counters flushed into `counters`, one
 * Phase::kIiAttempt sample per prefix candidate replayed into
 * `telemetry` in II order, §4.3 budget accounting (every failed attempt
 * bills its full budget; the winner bills the steps it used).
 *
 * Every backend behind sched::schedule() (iterative, slack, exact) is a
 * thin wrapper over this driver; they differ only in the attempt
 * callback and the exhaustion message.
 *
 * @throws support::CodedError (code "sched.ii_exhausted", message built
 *         lazily from `exhausted_message`) when every candidate fails.
 */
ModuloScheduleOutcome
runIiSearch(const IiSearchOptions& options, int res_mii, int mii,
            std::int64_t budget, const IiAttemptFn& attempt,
            support::Counters* counters, support::TelemetrySink* telemetry,
            const std::function<std::string()>& exhausted_message);

} // namespace ims::sched

#endif // IMS_SCHED_II_SEARCH_HPP
