#include "core/pipeliner.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>
#include <utility>

#include "codegen/kernel_only.hpp"
#include "graph/scc.hpp"
#include "mii/min_dist.hpp"
#include "sched/verifier.hpp"
#include "sim/issue_stream.hpp"
#include "support/error.hpp"
#include "workloads/kernels.hpp"

namespace ims::core {

namespace {

/**
 * Thrown after the diagnostics explaining a failure have already been
 * pushed onto the result; the catch handler unwinds without adding the
 * generic "error.<phase>" diagnostic a raw exception would get.
 */
struct ReportedFailure : std::exception
{
    const char*
    what() const noexcept override
    {
        return "failure already reported via diagnostics";
    }
};

} // namespace

std::string
PipelineResult::firstError() const
{
    for (const auto& diagnostic : diagnostics) {
        if (diagnostic.severity == Diagnostic::Severity::kError)
            return diagnostic.message;
    }
    return "";
}

const PipelineArtifacts&
PipelineResult::artifactsOrThrow() const&
{
    if (!artifacts.has_value()) {
        const std::string message = firstError();
        throw support::Error(message.empty() ? "pipelining failed"
                                             : message);
    }
    return *artifacts;
}

PipelineArtifacts
PipelineResult::artifactsOrThrow() &&
{
    artifactsOrThrow(); // throw on failure
    return std::move(*artifacts);
}

std::vector<Diagnostic>
simEquivalenceDiagnostics(const ir::Loop& loop,
                          const PipelineArtifacts& artifacts,
                          const std::vector<int>& trips,
                          std::uint64_t seed)
{
    std::vector<Diagnostic> out;
    bool has_exit = false;
    for (const auto& op : loop.operations())
        has_exit = has_exit || op.opcode == ir::Opcode::kExitIf;

    // The loop is validated once; an invalid one fails the sequential
    // reference at every trip.
    std::exception_ptr invalid;
    try {
        loop.validate();
    } catch (const std::exception&) {
        invalid = std::current_exception();
    }

    // Each form is lowered on the first trip that runs it and reused for
    // the rest. A failed lowering leaves its stream unset, so each later
    // trip retries and reports.
    std::optional<sim::IssueStream> flat;
    std::optional<sim::IssueStream> generated;
    std::optional<sim::IssueStream> kernel_only;

    for (const int trip : trips) {
        if (trip < 0)
            continue;
        std::optional<sim::InitialState> initial;
        std::optional<sim::SimResult> reference;
        try {
            if (invalid)
                std::rethrow_exception(invalid);
            initial = workloads::makeInitialState(loop, trip, seed);
            reference = sim::runSequential(loop, *initial);
        } catch (const std::exception& error) {
            out.push_back({Diagnostic::Severity::kError, "verify",
                           "sequential reference failed at trip " +
                               std::to_string(trip) + ": " + error.what(),
                           "sim.error"});
            continue;
        }

        const auto compare = [&](const char* engine,
                                 std::optional<sim::IssueStream>& stream,
                                 auto&& lower) {
            try {
                if (!stream)
                    stream = lower();
                const sim::SimResult got =
                    sim::StreamEngine(loop, *stream, *initial).run();
                const std::string diff =
                    sim::describeDifference(*reference, got);
                if (!diff.empty()) {
                    out.push_back(
                        {Diagnostic::Severity::kError, "verify",
                         std::string(engine) +
                             " diverges from sequential at trip " +
                             std::to_string(trip) + ": " + diff,
                         "sim.mismatch"});
                }
            } catch (const std::exception& error) {
                out.push_back({Diagnostic::Severity::kError, "verify",
                               std::string(engine) + " failed at trip " +
                                   std::to_string(trip) + ": " +
                                   error.what(),
                               "sim.error"});
            }
        };

        compare("pipelined", flat, [&] {
            return sim::lowerSchedule(loop, artifacts.outcome.schedule);
        });
        if (!has_exit && trip >= artifacts.code.kernel.stageCount) {
            compare("generated_code", generated, [&] {
                return sim::lowerGeneratedCode(loop, artifacts.code);
            });
        }
        if (!has_exit) {
            // No trip floor: the stage predicates make the kernel-only
            // schema valid at every trip count, including 0.
            compare("kernel_only", kernel_only, [&] {
                return sim::lowerKernelOnly(
                    loop, codegen::generateKernelOnly(
                              loop, artifacts.outcome.schedule));
            });
        }
    }
    return out;
}

SoftwarePipeliner::SoftwarePipeliner(machine::MachineModel machine,
                                     PipelinerOptions options)
    : machine_(std::move(machine)), options_(std::move(options))
{
}

PipelineResult
SoftwarePipeliner::pipeline(const PipelineRequest& request) const
{
    const ir::Loop& loop = *request.loop;
    // Per-call overrides: the request's options (when set) replace the
    // pipeliner-level ones wholesale; its sink wins over the options'.
    PipelinerOptions options =
        request.options.has_value() ? *request.options : options_;
    support::TelemetrySink* external = request.telemetry != nullptr
                                           ? request.telemetry
                                           : options.telemetry;

    PipelineResult result;
    support::TelemetryRecorder recorder;
    support::TeeSink sink(&recorder, external);
    support::Counters counters;
    options.schedule.telemetry = &sink;

    result.telemetry.loop = loop.name();
    result.telemetry.ops = loop.size();

    const auto start = std::chrono::steady_clock::now();
    std::string phase = support::phaseName(support::Phase::kGraphBuild);
    try {
        graph::DepGraph dep_graph =
            graph::buildDepGraph(loop, machine_, options.graph, &sink);
        const graph::SccResult sccs = graph::findSccs(dep_graph, &counters);

        phase = support::phaseName(support::Phase::kMiiBounds);
        sched::ModuloScheduleOutcome outcome =
            sched::schedule(loop, machine_, dep_graph, sccs,
                            options.schedule, &counters);

        result.telemetry.resMii = outcome.resMii;
        result.telemetry.mii = outcome.mii;
        result.telemetry.ii = outcome.schedule.ii;
        result.telemetry.attempts = outcome.attempts;
        result.telemetry.scheduleLength = outcome.schedule.scheduleLength;
        result.telemetry.budget = outcome.budget;
        result.telemetry.stepsTotal = outcome.totalSteps;
        result.telemetry.backtracks = outcome.totalUnschedules;
        result.telemetry.scheduler = outcome.scheduler;
        result.telemetry.iiAttemptsProvenInfeasible =
            outcome.search.attemptsProvenInfeasible;
        result.telemetry.iiSearchWallSeconds = outcome.search.wallSeconds;

        phase = support::phaseName(support::Phase::kVerify);
        if (options.verify) {
            support::PhaseTimer timer(&sink, support::Phase::kVerify);
            const auto violations =
                sched::verifySchedule(loop, machine_, dep_graph,
                                      outcome.schedule);
            if (!violations.empty()) {
                for (const auto& violation : violations) {
                    result.diagnostics.push_back(
                        {Diagnostic::Severity::kError, phase,
                         "schedule verification failed for '" +
                             loop.name() + "': " + violation.toString(),
                         "verify." +
                             sched::violationKindName(violation.kind)});
                }
                throw ReportedFailure();
            }
        }

        phase = support::phaseName(support::Phase::kListSchedule);
        sched::ListScheduleResult list_schedule =
            sched::listSchedule(loop, machine_, dep_graph, &counters,
                                &sink);

        const mii::MinDistMatrix dist(dep_graph, outcome.schedule.ii,
                                      &counters);
        const int critical_path = static_cast<int>(
            dist.atVertex(dep_graph.start(), dep_graph.stop()));

        PipelineArtifacts artifacts{
            std::move(dep_graph),
            std::move(outcome),
            std::move(list_schedule),
            0,
            {},
            {},
            {},
        };
        artifacts.minScheduleLength =
            std::max(critical_path, artifacts.listSchedule.scheduleLength);

        phase = support::phaseName(support::Phase::kCodegen);
        artifacts.code = codegen::generateCode(
            loop, machine_, artifacts.outcome.schedule, &sink);
        artifacts.lifetimes = codegen::analyzeLifetimes(
            loop, machine_, artifacts.outcome.schedule, &sink);
        artifacts.registers = codegen::allocateRegisters(
            loop, artifacts.lifetimes, artifacts.code.mve, &sink);

        if (options.verifySim) {
            phase = support::phaseName(support::Phase::kVerify);
            support::PhaseTimer timer(&sink, support::Phase::kVerify);
            auto sim_diagnostics = simEquivalenceDiagnostics(
                loop, artifacts, options.verifySimTrips,
                options.verifySimSeed);
            if (!sim_diagnostics.empty()) {
                for (auto& diagnostic : sim_diagnostics)
                    result.diagnostics.push_back(std::move(diagnostic));
                throw ReportedFailure();
            }
        }

        result.artifacts = std::move(artifacts);
        result.telemetry.succeeded = true;
    } catch (const ReportedFailure&) {
        // Diagnostics for this failure are already on the result.
    } catch (const support::CodedError& error) {
        // Structured throwers (e.g. the II-search driver's
        // "sched.ii_exhausted") carry their own stable code; preserve it
        // instead of synthesizing a generic "error.<phase>".
        if (!recorder.record().phases.empty())
            phase = support::phaseName(recorder.record().phases.back().phase);
        result.diagnostics.push_back({Diagnostic::Severity::kError, phase,
                                      error.what(), error.code()});
    } catch (const std::exception& error) {
        // The RAII phase timers record their samples during unwinding, so
        // the last sample the recorder saw pinpoints the failing phase
        // more precisely than the coarse stage label (e.g. a budget
        // exhaustion inside moduloSchedule is an ii_attempt, not
        // mii_bounds).
        if (!recorder.record().phases.empty())
            phase = support::phaseName(recorder.record().phases.back().phase);
        result.diagnostics.push_back({Diagnostic::Severity::kError, phase,
                                      error.what(), "error." + phase});
    }

    sink.onCounters(counters);
    result.telemetry.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    // The recorder has seen every phase sample and the counters; fold its
    // accumulation into the summary record.
    result.telemetry.phases = std::move(recorder.record().phases);
    result.telemetry.counters = recorder.record().counters;
    return result;
}

} // namespace ims::core
