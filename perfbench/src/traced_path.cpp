#include "traced_path.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>

#include "codegen/emit.hpp"
#include "codegen/kernel_only.hpp"
#include "graph/scc.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "mii/min_dist.hpp"
#include "program/program_executor.hpp"
#include "sched/verifier.hpp"
#include "service/options_codec.hpp"
#include "sim/pipeline_simulator.hpp"
#include "sim/section_executor.hpp"
#include "support/error.hpp"
#include "workloads/kernels.hpp"

namespace perfbench {

using namespace ims;

namespace {

/** Unwinds a run whose diagnostics are already on the result. */
struct ReportedFailure : std::exception
{
};

core::Diagnostic
error(std::string phase, std::string message, std::string code)
{
    return {core::Diagnostic::Severity::kError, std::move(phase),
            std::move(message), std::move(code)};
}

/** simEquivalenceDiagnostics, one span per engine call. */
std::vector<core::Diagnostic>
tracedSimDiagnostics(const ir::Loop& loop,
                     const core::PipelineArtifacts& artifacts,
                     const std::vector<int>& trips, std::uint64_t seed,
                     Tracer& tracer)
{
    std::vector<core::Diagnostic> out;
    bool has_exit = false;
    for (const auto& op : loop.operations())
        has_exit = has_exit || op.opcode == ir::Opcode::kExitIf;

    for (const int trip : trips) {
        if (trip < 0)
            continue;
        const sim::SimSpec spec = tracer.span(Layer::kSimSpec, [&] {
            return workloads::makeSimSpec(loop, trip, seed);
        });

        std::optional<sim::SimResult> reference;
        try {
            reference = tracer.span(Layer::kSimSequential, [&] {
                return sim::runSequential(loop, spec);
            });
        } catch (const std::exception& e) {
            out.push_back(error("verify",
                                "sequential reference failed at trip " +
                                    std::to_string(trip) + ": " + e.what(),
                                "sim.error"));
            continue;
        }

        const auto compare = [&](Layer layer, const char* engine,
                                 auto&& run) {
            try {
                const std::string diff = tracer.span(layer, [&] {
                    return sim::describeDifference(*reference, run());
                });
                if (!diff.empty())
                    out.push_back(error("verify",
                                        std::string(engine) +
                                            " diverges from sequential at "
                                            "trip " +
                                            std::to_string(trip) + ": " +
                                            diff,
                                        "sim.mismatch"));
            } catch (const std::exception& e) {
                out.push_back(error("verify",
                                    std::string(engine) + " failed at trip " +
                                        std::to_string(trip) + ": " +
                                        e.what(),
                                    "sim.error"));
            }
        };

        compare(Layer::kSimPipelined, "pipelined", [&] {
            return sim::runPipelined(loop, artifacts.outcome.schedule, spec)
                .state;
        });
        if (!has_exit && trip >= artifacts.code.kernel.stageCount) {
            compare(Layer::kSimGeneratedCode, "generated_code", [&] {
                return sim::runGeneratedCode(loop, artifacts.code, spec);
            });
        }
        if (!has_exit) {
            std::optional<codegen::KernelOnlyCode> kernel_only;
            try {
                kernel_only = tracer.span(Layer::kCodegenKernelOnly, [&] {
                    return codegen::generateKernelOnly(
                        loop, artifacts.outcome.schedule);
                });
            } catch (const std::exception& e) {
                out.push_back(error("verify",
                                    std::string("kernel_only failed at "
                                                "trip ") +
                                        std::to_string(trip) + ": " +
                                        e.what(),
                                    "sim.error"));
                continue;
            }
            compare(Layer::kSimKernelOnly, "kernel_only", [&] {
                return sim::runKernelOnly(loop, *kernel_only, spec);
            });
        }
    }
    return out;
}

} // namespace

Signature
pipelineSignature(const ir::Loop& loop, const core::PipelineResult& result)
{
    Signature signature;
    for (const auto& diagnostic : result.diagnostics)
        signature.codes.push_back(diagnostic.code);
    if (!result.ok())
        return signature;
    const auto& artifacts = *result.artifacts;
    signature.ii = artifacts.outcome.schedule.ii;
    signature.times = artifacts.outcome.schedule.times;
    signature.alternatives = artifacts.outcome.schedule.alternatives;
    signature.listing =
        codegen::emitListing(loop, artifacts.code, artifacts.registers);
    return signature;
}

Signature
programSignature(const program::ProgramCompileResult& compiled,
                 const std::vector<core::Diagnostic>& diagnostics)
{
    Signature signature;
    for (const auto& diagnostic : compiled.diagnostics)
        signature.codes.push_back(diagnostic.code);
    for (const auto& diagnostic : diagnostics)
        signature.codes.push_back(diagnostic.code);
    if (!compiled.ok())
        return signature;
    const auto& schedule = compiled.compiled->loop.schedule;
    signature.ii = schedule.ii;
    signature.times = schedule.times;
    signature.alternatives = schedule.alternatives;
    signature.listing = program::emitProgram(*compiled.compiled);
    return signature;
}

core::PipelineResult
tracedPipeline(const ir::Loop& loop, const machine::MachineModel& machine,
               const core::PipelinerOptions& pipeline_options, Tracer& tracer,
               TraceCounts& counts)
{
    core::PipelinerOptions options = pipeline_options;
    core::PipelineResult result;
    support::TelemetryRecorder recorder;
    support::TeeSink sink(&recorder, nullptr);
    support::Counters counters;
    options.schedule.telemetry = &sink;
    result.telemetry.loop = loop.name();
    result.telemetry.ops = loop.size();

    const auto start = std::chrono::steady_clock::now();
    std::string phase = support::phaseName(support::Phase::kGraphBuild);
    try {
        graph::DepGraph dep_graph = tracer.span(Layer::kGraphBuild, [&] {
            return graph::buildDepGraph(loop, machine, options.graph, &sink);
        });
        const graph::SccResult sccs = tracer.span(Layer::kGraphScc, [&] {
            return graph::findSccs(dep_graph, &counters);
        });

        phase = support::phaseName(support::Phase::kMiiBounds);
        sched::ModuloScheduleOutcome outcome =
            tracer.span(Layer::kSchedSchedule, [&] {
                return sched::schedule(loop, machine, dep_graph, sccs,
                                       options.schedule, &counters);
            });
        ++counts.scheduledLoops;
        counts.scheduledOps += static_cast<std::uint64_t>(loop.size());
        counts.attempts += static_cast<std::uint64_t>(outcome.attempts);
        counts.steps += static_cast<std::uint64_t>(outcome.totalSteps);
        result.telemetry.resMii = outcome.resMii;
        result.telemetry.mii = outcome.mii;
        result.telemetry.ii = outcome.schedule.ii;
        result.telemetry.attempts = outcome.attempts;
        result.telemetry.scheduleLength = outcome.schedule.scheduleLength;
        result.telemetry.budget = outcome.budget;
        result.telemetry.stepsTotal = outcome.totalSteps;
        result.telemetry.backtracks = outcome.totalUnschedules;
        result.telemetry.scheduler = outcome.scheduler;

        phase = support::phaseName(support::Phase::kVerify);
        if (options.verify) {
            const auto violations = tracer.span(Layer::kSchedVerify, [&] {
                support::PhaseTimer timer(&sink, support::Phase::kVerify);
                return sched::verifySchedule(loop, machine, dep_graph,
                                             outcome.schedule);
            });
            if (!violations.empty()) {
                for (const auto& violation : violations)
                    result.diagnostics.push_back(error(
                        phase,
                        "schedule verification failed for '" + loop.name() +
                            "': " + violation.toString(),
                        "verify." +
                            sched::violationKindName(violation.kind)));
                throw ReportedFailure();
            }
        }

        phase = support::phaseName(support::Phase::kListSchedule);
        sched::ListScheduleResult list_schedule =
            tracer.span(Layer::kSchedListSchedule, [&] {
                return sched::listSchedule(loop, machine, dep_graph,
                                           &counters, &sink);
            });

        const int critical_path = tracer.span(Layer::kMiiMinDist, [&] {
            const mii::MinDistMatrix dist(dep_graph, outcome.schedule.ii,
                                          &counters);
            return static_cast<int>(
                dist.atVertex(dep_graph.start(), dep_graph.stop()));
        });

        core::PipelineArtifacts artifacts{
            std::move(dep_graph), std::move(outcome),
            std::move(list_schedule), 0, {}, {}, {},
        };
        artifacts.minScheduleLength =
            std::max(critical_path, artifacts.listSchedule.scheduleLength);

        phase = support::phaseName(support::Phase::kCodegen);
        artifacts.code = tracer.span(Layer::kCodegenGenerate, [&] {
            return codegen::generateCode(loop, machine,
                                         artifacts.outcome.schedule, &sink);
        });
        artifacts.lifetimes = tracer.span(Layer::kCodegenLifetimes, [&] {
            return codegen::analyzeLifetimes(
                loop, machine, artifacts.outcome.schedule, &sink);
        });
        artifacts.registers = tracer.span(Layer::kCodegenRegalloc, [&] {
            return codegen::allocateRegisters(loop, artifacts.lifetimes,
                                              artifacts.code.mve, &sink);
        });

        if (options.verifySim) {
            phase = support::phaseName(support::Phase::kVerify);
            support::PhaseTimer timer(&sink, support::Phase::kVerify);
            auto sim_diagnostics = tracedSimDiagnostics(
                loop, artifacts, options.verifySimTrips,
                options.verifySimSeed, tracer);
            if (!sim_diagnostics.empty()) {
                for (auto& diagnostic : sim_diagnostics)
                    result.diagnostics.push_back(std::move(diagnostic));
                throw ReportedFailure();
            }
        }

        result.artifacts = std::move(artifacts);
        result.telemetry.succeeded = true;
    } catch (const ReportedFailure&) {
    } catch (const support::CodedError& e) {
        if (!recorder.record().phases.empty())
            phase = support::phaseName(recorder.record().phases.back().phase);
        result.diagnostics.push_back(error(phase, e.what(), e.code()));
    } catch (const std::exception& e) {
        if (!recorder.record().phases.empty())
            phase = support::phaseName(recorder.record().phases.back().phase);
        result.diagnostics.push_back(error(phase, e.what(), "error." + phase));
    }

    counts.minDistInnerSteps += counters.minDistInnerSteps;
    sink.onCounters(counters);
    result.telemetry.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    result.telemetry.phases = std::move(recorder.record().phases);
    result.telemetry.counters = recorder.record().counters;
    return result;
}

TracedResponse
tracedServiceRequest(const service::ServiceRequest& request,
                     const service::ModelRegistry& registry,
                     service::ScheduleCache& cache,
                     const core::PipelinerOptions& defaults, Tracer& tracer,
                     TraceCounts& counts)
{
    TracedResponse response;
    const auto model = tracer.span(Layer::kServiceModelLookup, [&] {
        return registry.lookup(request.machine);
    });
    if (!model)
        throw support::Error("unknown machine '" + request.machine + "'");

    response.loop = tracer.span(Layer::kIrParse, [&] {
        return std::make_shared<const ir::Loop>(
            ir::parseLoop(request.loopText));
    });
    std::string canonical_loop = tracer.span(
        Layer::kIrPrint, [&] { return ir::printLoop(*response.loop); });

    const core::PipelinerOptions& effective =
        request.options ? *request.options : defaults;
    std::string options_text = tracer.span(
        Layer::kServiceOptionsCodec,
        [&] { return service::canonicalOptionsText(effective); });
    const service::CacheKey key = tracer.span(Layer::kServiceCacheKey, [&] {
        return service::CacheKey::make(std::move(canonical_loop),
                                       model->canonicalText,
                                       std::move(options_text));
    });

    ++counts.cacheLookups;
    response.result = tracer.span(Layer::kServiceCacheLookup,
                                  [&] { return cache.lookup(key); });
    if (response.result) {
        ++counts.cacheHits;
        response.hit = true;
        return response;
    }
    core::PipelineResult result = tracedPipeline(
        *response.loop, model->model, effective, tracer, counts);
    response.result = tracer.span(Layer::kServiceCacheInsert, [&] {
        return cache.insert(key, std::move(result));
    });
    return response;
}

Signature
tracedProgramRequest(const program::Program& program,
                     const program::ProgramCompiler& compiler,
                     const std::vector<int>& trips, std::uint64_t seed,
                     Tracer& tracer)
{
    const program::ProgramCompileResult compiled = tracer.span(
        Layer::kProgramCompile, [&] { return compiler.compile(program); });

    // programEquivalenceDiagnostics, recomposed: it builds its own
    // compiler and compiles again before executing both forms.
    std::vector<core::Diagnostic> out;
    const program::ProgramCompileResult checked =
        tracer.span(Layer::kProgramCompile, [&] {
            const program::ProgramCompiler oracle(compiler.machine(),
                                                  compiler.options());
            return oracle.compile(program);
        });
    if (!checked.ok()) {
        for (const auto& diagnostic : checked.diagnostics) {
            if (diagnostic.severity == core::Diagnostic::Severity::kError)
                out.push_back(diagnostic);
        }
        if (out.empty())
            out.push_back(error("compile",
                                "program compilation failed without an "
                                "error diagnostic",
                                "program.error"));
        return programSignature(compiled, out);
    }
    for (const int trip : trips) {
        if (trip < 0)
            continue;
        const program::ProgramSpec spec =
            program::makeProgramSpec(program, trip, seed);
        program::ProgramState reference;
        try {
            reference = tracer.span(Layer::kProgramExecSequential, [&] {
                return program::runProgramSequential(program, spec);
            });
        } catch (const std::exception& e) {
            out.push_back(error("verify",
                                "sequential program reference failed at "
                                "trip " +
                                    std::to_string(trip) + ": " + e.what(),
                                "program.error"));
            continue;
        }
        try {
            const std::string diff =
                tracer.span(Layer::kProgramExecCompiled, [&] {
                    return program::describeStateDifference(
                        reference,
                        program::runProgramCompiled(*checked.compiled, spec));
                });
            if (!diff.empty())
                out.push_back(error("verify",
                                    "compiled program diverges from "
                                    "sequential at trip " +
                                        std::to_string(trip) + ": " + diff,
                                    "program.mismatch"));
        } catch (const std::exception& e) {
            out.push_back(error("verify",
                                "compiled program failed at trip " +
                                    std::to_string(trip) + ": " + e.what(),
                                "program.error"));
        }
    }
    return programSignature(compiled, out);
}

} // namespace perfbench
