#include "sched/ii_search.hpp"

#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "sched/schedule.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace ims::sched {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/**
 * The race engine behind both strategies. Workers claim candidate IIs off
 * an atomic cursor in increasing order; a successful attempt lowers the
 * cancellation ceiling to its II, which (a) stops further claims above
 * it and (b) cooperatively aborts in-flight attempts above it. The
 * linear strategy is the same engine with one worker run inline — the
 * single worker claims minIi, minIi+1, ... and stops at the first claim
 * above the ceiling, i.e. right after its first success — so the two
 * strategies cannot drift apart behaviourally.
 *
 * Determinism: an attempt at `ii` can be skipped or cancelled only when
 * the ceiling is below `ii`, i.e. only when some attempt at ii' < ii
 * succeeded. The winner is the lowest successful II, so for every
 * ii <= winner no such ii' exists: attempts at ii < winner always run
 * to (deterministic) failure, and the winner's attempt always runs to
 * success. The prefix [minIi, winner] therefore reproduces the linear
 * search exactly; everything at higher IIs is discarded speculation.
 */
IiSearchResult
runRace(std::string strategy, int min_ii, int max_ii, int workers,
        const IiAttemptFn& attempt)
{
    assert(min_ii <= max_ii);
    const int candidates = max_ii - min_ii + 1;

    struct Slot
    {
        bool started = false;
        double seconds = 0.0;
        IiAttemptOutcome outcome;
        std::exception_ptr error;
    };

    /**
     * Chunked, lazily allocated slot store. The candidate range is
     * maxIiIncrease+1 wide (4097 by default) but a search normally
     * touches only [minIi, winner] — a handful of slots — so
     * value-initialising a flat vector of ~200-byte Slots burned tens of
     * microseconds per schedule() call on zeroing memory nobody reads.
     * Chunks materialise on first touch behind a double-checked atomic
     * pointer (publish with release, read with acquire), so concurrent
     * workers may allocate distinct chunks race-free while untouched
     * chunks stay null; a null chunk at assembly time means "no attempt
     * in this range started".
     */
    constexpr int kSlotChunk = 16;
    const int num_chunks = (candidates + kSlotChunk - 1) / kSlotChunk;
    struct SlotStore
    {
        explicit SlotStore(int num_chunks) : chunks(num_chunks) {}
        ~SlotStore()
        {
            for (auto& chunk : chunks)
                delete[] chunk.load(std::memory_order_relaxed);
        }
        std::vector<std::atomic<Slot*>> chunks;
        std::mutex allocMutex;
    };
    SlotStore store(num_chunks);
    const auto slot_at = [&](int index) -> Slot& {
        auto& entry = store.chunks[index / kSlotChunk];
        Slot* chunk = entry.load(std::memory_order_acquire);
        if (chunk == nullptr) {
            std::lock_guard<std::mutex> lock(store.allocMutex);
            chunk = entry.load(std::memory_order_relaxed);
            if (chunk == nullptr) {
                chunk = new Slot[kSlotChunk];
                entry.store(chunk, std::memory_order_release);
            }
        }
        return chunk[index % kSlotChunk];
    };
    /** The slot for `index`, or nullptr when its chunk was never touched
        (single-threaded assembly use only). */
    const auto peek_slot = [&](int index) -> Slot* {
        Slot* chunk = store.chunks[index / kSlotChunk].load(
            std::memory_order_acquire);
        return chunk == nullptr ? nullptr : chunk + index % kSlotChunk;
    };

    support::CancellationToken token;
    std::atomic<int> cursor{min_ii};

    const auto search_start = std::chrono::steady_clock::now();
    const auto body = [&](int worker) {
        while (true) {
            const int ii = cursor.fetch_add(1, std::memory_order_relaxed);
            // Claims arrive in increasing II order, so once one claim is
            // above the ceiling every later claim of this worker would be
            // too: return instead of spinning through the tail.
            if (ii > max_ii || token.cancelled(ii))
                return;
            Slot& slot = slot_at(ii - min_ii);
            slot.started = true;
            const auto attempt_start = std::chrono::steady_clock::now();
            try {
                slot.outcome = attempt(ii, worker, token);
            } catch (...) {
                // Park the exception (threaded bodies must not throw);
                // the assembly step below rethrows it iff the linear
                // search would have reached this II. An exception is not
                // speculation — the deterministic search dies at this II
                // — so this worker stops claiming candidates instead of
                // burning through the rest of the range.
                slot.error = std::current_exception();
                slot.seconds = secondsSince(attempt_start);
                return;
            }
            slot.seconds = secondsSince(attempt_start);
            if (slot.outcome.schedule.has_value())
                token.lowerCeiling(ii);
        }
    };

    if (workers <= 1) {
        body(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(workers));
        for (int w = 0; w < workers; ++w)
            pool.emplace_back(body, w);
        for (auto& thread : pool)
            thread.join();
    }

    IiSearchResult result;
    IiSearchStats& stats = result.stats;
    stats.strategy = std::move(strategy);
    stats.workers = workers < 1 ? 1 : workers;
    stats.wallSeconds = secondsSince(search_start);

    // The winner is the lowest successful II; a parked exception below it
    // takes precedence (the linear search would have thrown there before
    // ever reaching the winner). Exceptions parked *above* the winner
    // belong to speculative attempts the linear search never runs — they
    // are discarded with the rest of the speculation.
    int winner = -1;
    for (int i = 0; i < candidates; ++i) {
        Slot* slot = peek_slot(i);
        if (slot == nullptr) {
            i += kSlotChunk - 1 - i % kSlotChunk; // skip untouched chunk
            continue;
        }
        if (slot->error != nullptr)
            std::rethrow_exception(slot->error);
        if (slot->outcome.schedule.has_value()) {
            winner = i;
            break;
        }
    }

    const int prefix = winner >= 0 ? winner + 1 : candidates;
    result.searchedIis = prefix;
    stats.records.reserve(static_cast<std::size_t>(prefix));
    for (int i = 0; i < prefix; ++i) {
        // Deterministic-prefix invariant (see the engine comment): every
        // prefix attempt was claimed and ran to completion, uncancelled,
        // so its chunk exists; the null/unstarted skips are defensive.
        Slot* slot = peek_slot(i);
        if (slot == nullptr) {
            i += kSlotChunk - 1 - i % kSlotChunk;
            continue;
        }
        if (!slot->started)
            continue;
        assert(slot->outcome.status != AttemptStatus::kCancelled);
        result.counters += slot->outcome.counters;
        if (slot->outcome.status == AttemptStatus::kInfeasible)
            ++stats.attemptsProvenInfeasible;
        stats.records.push_back({min_ii + i,
                                 slot->outcome.schedule.has_value(),
                                 slot->outcome.status, slot->seconds});
    }
    if (winner >= 0)
        result.schedule = std::move(peek_slot(winner)->outcome.schedule);

    for (int i = 0; i < candidates; ++i) {
        Slot* slot = peek_slot(i);
        if (slot == nullptr) {
            i += kSlotChunk - 1 - i % kSlotChunk;
            continue;
        }
        if (!slot->started)
            continue;
        ++stats.attemptsStarted;
        stats.cpuSeconds += slot->seconds;
        if (slot->outcome.status == AttemptStatus::kCancelled)
            ++stats.attemptsCancelled;
        if (winner >= 0 && i > winner)
            ++stats.attemptsWasted;
    }
    return result;
}

} // namespace

std::string
attemptStatusName(AttemptStatus status)
{
    switch (status) {
      case AttemptStatus::kScheduled:
        return "scheduled";
      case AttemptStatus::kBudgetExhausted:
        return "budget_exhausted";
      case AttemptStatus::kInfeasible:
        return "infeasible";
      case AttemptStatus::kCancelled:
        return "cancelled";
    }
    return "?";
}

std::string
iiSearchKindName(IiSearchKind kind)
{
    switch (kind) {
      case IiSearchKind::kLinear:
        return "linear";
      case IiSearchKind::kRacing:
        return "racing";
    }
    return "?";
}

std::optional<IiSearchKind>
iiSearchKindByName(std::string_view name)
{
    if (name == "linear")
        return IiSearchKind::kLinear;
    if (name == "racing")
        return IiSearchKind::kRacing;
    return std::nullopt;
}

int
plannedWorkers(const IiSearchOptions& options, int candidates)
{
    if (options.kind == IiSearchKind::kLinear)
        return 1;
    return support::resolveThreads(
        options.threads,
        static_cast<std::size_t>(candidates < 1 ? 1 : candidates));
}

IiSearchResult
searchIiRange(const IiSearchOptions& options, int min_ii, int max_ii,
              const IiAttemptFn& attempt)
{
    support::check(std::isfinite(options.budgetRatio) &&
                       options.budgetRatio > 0,
                   "BudgetRatio must be positive and finite");
    support::check(options.maxIiIncrease >= 0,
                   "maxIiIncrease must be non-negative");
    return runRace(iiSearchKindName(options.kind), min_ii, max_ii,
                   plannedWorkers(options, max_ii - min_ii + 1), attempt);
}

ModuloScheduleOutcome
runIiSearch(const IiSearchOptions& options, int res_mii, int mii,
            std::int64_t budget, const IiAttemptFn& attempt,
            support::Counters* counters, support::TelemetrySink* telemetry,
            const std::function<std::string()>& exhausted_message)
{
    IiSearchResult found =
        searchIiRange(options, mii, mii + options.maxIiIncrease, attempt);

    // Fold the deterministic prefix into the caller-visible accounting:
    // the counter deltas and the replayed Phase::kIiAttempt samples cover
    // exactly the candidates [mii, winner] in II order — what the linear
    // search reports natively — so sinks and counters are bit-identical
    // across strategies and thread counts (timings aside).
    if (counters != nullptr)
        *counters += found.counters;
    if (telemetry != nullptr) {
        for (const IiAttemptRecord& record : found.stats.records) {
            support::PhaseSample sample;
            sample.phase = support::Phase::kIiAttempt;
            sample.detail = record.ii;
            sample.seconds = record.seconds;
            sample.succeeded = record.feasible;
            telemetry->onPhase(sample);
        }
    }

    ModuloScheduleOutcome outcome;
    outcome.resMii = res_mii;
    outcome.mii = mii;
    outcome.budget = budget;
    outcome.attempts = found.searchedIis;
    outcome.search = std::move(found.stats);

    if (!found.schedule.has_value()) {
        // The message is built only on this cold path; the code gives
        // the pipeliner's Diagnostic a stable machine-readable identity.
        throw support::CodedError("sched.ii_exhausted", exhausted_message());
    }

    // §4.3: "IterativeSchedule, on all but the last, successful
    // invocation, expends its entire budget each time."
    outcome.totalSteps =
        budget * (found.searchedIis - 1) + found.schedule->stepsUsed;
    outcome.totalUnschedules = found.schedule->unschedules;
    outcome.schedule = std::move(*found.schedule);
    return outcome;
}

} // namespace ims::sched
