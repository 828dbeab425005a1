#ifndef IMS_CORE_PIPELINER_HPP
#define IMS_CORE_PIPELINER_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "codegen/code_generator.hpp"
#include "codegen/register_allocator.hpp"
#include "graph/graph_builder.hpp"
#include "ir/loop.hpp"
#include "machine/machine_model.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/schedule.hpp"
#include "support/counters.hpp"
#include "support/telemetry.hpp"

namespace ims::core {

/**
 * Options for the end-to-end pipeline.
 *
 * Defaults (the single source of truth; see docs/api.md):
 *  - delay model: exact (Table 1), DSA/EVR form assumed;
 *  - scheduler backend: iterative (withScheduler selects the slack or
 *    the exact backend; see sched/schedule.hpp);
 *  - priority: HeightR, forward-progress rule on;
 *  - BudgetRatio 2.0 (the paper's recommendation), maxIiIncrease 4096;
 *  - independent schedule verification on;
 *  - no telemetry sink.
 *
 * The `with*` setters mutate-and-return so batch and single-loop callers
 * configure identically:
 * @code
 *   auto options = core::PipelinerOptions{}
 *                      .withBudgetRatio(6.0)
 *                      .withVerification(false)
 *                      .withTelemetry(&my_sink);
 * @endcode
 */
struct PipelinerOptions
{
    graph::GraphOptions graph;
    sched::ScheduleOptions schedule;
    /** Verify every schedule with the independent checker (cheap). */
    bool verify = true;
    /**
     * Additionally verify end-to-end semantics: simulate the loop with the
     * sequential reference interpreter and with every applicable pipelined
     * engine (flat schedule, prologue/kernel/epilogue, kernel-only) at each
     * trip count in `verifySimTrips` and require identical final state.
     * Much more expensive than the structural check; off by default.
     */
    bool verifySim = false;
    /**
     * Trip counts for the sim-equivalence oracle. The defaults cover the
     * degenerate cases (0, 1), trips usually below the stage count (the
     * generated-code schema is skipped there; kernel-only still runs), and
     * a trip long enough to reach steady state.
     */
    std::vector<int> verifySimTrips = {0, 1, 2, 5, 17};
    /** Seed for the simulated input data (live-ins, seeds, arrays). */
    std::uint64_t verifySimSeed = 2026;
    /**
     * Default sink observing every run made with these options (a
     * per-request sink, when set, takes precedence). Must outlive the
     * pipeliner; must be thread-safe if the options are shared by a batch.
     */
    support::TelemetrySink* telemetry = nullptr;

    PipelinerOptions&
    withBudgetRatio(double ratio)
    {
        schedule.search.budgetRatio = ratio;
        return *this;
    }

    PipelinerOptions&
    withMaxIiIncrease(int increase)
    {
        schedule.search.maxIiIncrease = increase;
        return *this;
    }

    /**
     * Select the scheduling backend (iterative — the default —, slack,
     * or the exact branch-and-bound prover; see sched/schedule.hpp).
     */
    PipelinerOptions&
    withScheduler(sched::SchedulerStrategy strategy)
    {
        schedule.strategy = strategy;
        return *this;
    }

    /** Per-candidate-II node budget for the exact backend. */
    PipelinerOptions&
    withExactNodeBudget(std::int64_t budget)
    {
        schedule.exactNodeBudget = budget;
        return *this;
    }

    PipelinerOptions&
    withPriority(sched::PriorityScheme priority)
    {
        schedule.priority = priority;
        return *this;
    }

    PipelinerOptions&
    withRandomSeed(std::uint64_t seed)
    {
        schedule.randomSeed = seed;
        return *this;
    }

    PipelinerOptions&
    withForwardProgressRule(bool enabled)
    {
        schedule.forwardProgressRule = enabled;
        return *this;
    }

    PipelinerOptions&
    withDelayMode(graph::DelayMode mode)
    {
        graph.delayMode = mode;
        return *this;
    }

    PipelinerOptions&
    withDsaForm(bool enabled)
    {
        graph.dsaForm = enabled;
        return *this;
    }

    PipelinerOptions&
    withVerification(bool enabled)
    {
        verify = enabled;
        return *this;
    }

    PipelinerOptions&
    withSimVerification(bool enabled)
    {
        verifySim = enabled;
        return *this;
    }

    PipelinerOptions&
    withSimVerification(std::vector<int> trips, std::uint64_t seed)
    {
        verifySim = true;
        verifySimTrips = std::move(trips);
        verifySimSeed = seed;
        return *this;
    }

    PipelinerOptions&
    withTelemetry(support::TelemetrySink* sink)
    {
        telemetry = sink;
        return *this;
    }
};

/** Everything produced by pipelining one loop. */
struct PipelineArtifacts
{
    /** The dependence graph the schedule was built against. */
    graph::DepGraph depGraph;
    /** Scheduling outcome: the schedule plus MII/attempt statistics. */
    sched::ModuloScheduleOutcome outcome;
    /** Baseline acyclic list schedule of one iteration. */
    sched::ListScheduleResult listSchedule;
    /** Lower bound on the modulo schedule length at the achieved II
     *  (max of MinDist[START,STOP] and the list schedule length). */
    int minScheduleLength = 0;
    /** Kernel/prologue/epilogue structure with the MVE plan. */
    codegen::GeneratedCode code;
    /** Value lifetimes under the schedule. */
    codegen::LifetimeAnalysis lifetimes;
    /** Rotating/static register assignment. */
    codegen::RegisterAllocation registers;
};

/**
 * One pipelining request: the loop plus per-call overrides. The loop (and
 * any referenced sink/options) must outlive the call.
 */
struct PipelineRequest
{
    explicit PipelineRequest(const ir::Loop& l) : loop(&l) {}

    /** The loop to pipeline (non-owning; never null). */
    const ir::Loop* loop;
    /** When set, replaces the pipeliner-level options for this call. */
    std::optional<PipelinerOptions> options;
    /**
     * Per-request sink; takes precedence over the effective options'
     * `telemetry`. The result's own PipelineTelemetry record is always
     * produced regardless.
     */
    support::TelemetrySink* telemetry = nullptr;

    PipelineRequest&
    withOptions(PipelinerOptions o)
    {
        options = std::move(o);
        return *this;
    }

    PipelineRequest&
    withTelemetry(support::TelemetrySink* sink)
    {
        telemetry = sink;
        return *this;
    }
};

/** One structured problem report from a pipelining run. */
struct Diagnostic
{
    enum class Severity
    {
        kWarning,
        kError,
    };

    Severity severity = Severity::kError;
    /** Phase the diagnostic arose in ("graph_build", "verify", ...). */
    std::string phase;
    std::string message;
    /**
     * Machine-readable failure identity, stable across runs and input
     * mutations: "verify.<violation kind>" for structural violations
     * (e.g. "verify.dependence"), "sim.mismatch" / "sim.error" from the
     * sim-equivalence oracle, "error.<phase>" for everything that throws.
     * The fuzzing minimizer shrinks inputs while preserving this code, so
     * a reduced reproducer still fails for the original reason.
     */
    std::string code;
};

/**
 * Result of one pipelining run. Input problems surface as kError
 * diagnostics (with `artifacts` empty), not as exceptions — a malformed
 * loop in a batch yields a diagnosed entry, never a crashed batch.
 */
struct PipelineResult
{
    /** Present iff the run succeeded. */
    std::optional<PipelineArtifacts> artifacts;
    /** Per-phase timings, achieved II vs MII, budget, counters. */
    support::PipelineTelemetry telemetry;
    std::vector<Diagnostic> diagnostics;

    bool ok() const { return artifacts.has_value(); }

    /** First kError message, or "" when the run succeeded. */
    std::string firstError() const;

    /**
     * The artifacts; @throws support::Error carrying `firstError()` when
     * the run failed. Convenience for callers that want the old throwing
     * behaviour. The rvalue overload moves the artifacts out, so
     * `pipeliner.pipeline(request).artifactsOrThrow()` never dangles.
     */
    const PipelineArtifacts& artifactsOrThrow() const&;
    PipelineArtifacts artifactsOrThrow() &&;
};

/**
 * The sim-equivalence oracle: run the loop through the sequential
 * reference interpreter and through every applicable pipelined engine at
 * each trip count, and report one kError diagnostic (code "sim.mismatch"
 * or "sim.error") per divergence. Input data is derived from `seed` via
 * workloads::makeInitialState, so results are deterministic.
 *
 * Engine applicability: the flat-schedule simulator runs at every trip
 * (including 0); the prologue/kernel/epilogue executor needs
 * trip >= stageCount and a DO-loop (no early exits); kernel-only needs a
 * DO-loop and trip >= 1. An empty return means all engines agreed.
 */
std::vector<Diagnostic>
simEquivalenceDiagnostics(const ir::Loop& loop,
                          const PipelineArtifacts& artifacts,
                          const std::vector<int>& trips,
                          std::uint64_t seed);

/**
 * One-call public API: modulo-schedule a loop for a machine and derive all
 * downstream artifacts (kernel structure, MVE, register allocation,
 * baseline comparison). This is the facade the examples, tools and benches
 * use; BatchPipeliner drives it concurrently over many loops.
 *
 * @code
 *   auto machine = ims::machine::cydra5();
 *   ims::core::SoftwarePipeliner pipeliner(machine);
 *   auto result = pipeliner.pipeline(ims::core::PipelineRequest(loop));
 *   if (result.ok())
 *       std::cout << ims::core::report(loop, machine, *result.artifacts);
 *   std::cout << result.telemetry.toJson() << "\n";
 * @endcode
 *
 * Pipelining is const and touches no shared mutable state, so one
 * SoftwarePipeliner may serve concurrent pipeline() calls (the machine
 * model is immutable; see tests under -fsanitize=thread).
 */
class SoftwarePipeliner
{
  public:
    explicit SoftwarePipeliner(machine::MachineModel machine,
                               PipelinerOptions options = {});

    const machine::MachineModel& machine() const { return machine_; }
    const PipelinerOptions& options() const { return options_; }

    /**
     * Pipeline the request's loop. Never throws for bad input: problems
     * (invalid IR, unsupported opcodes, verification failures) come back
     * as diagnostics on the result, alongside whatever telemetry the run
     * produced before failing.
     */
    PipelineResult pipeline(const PipelineRequest& request) const;

  private:
    machine::MachineModel machine_;
    PipelinerOptions options_;
};

} // namespace ims::core

#endif // IMS_CORE_PIPELINER_HPP
