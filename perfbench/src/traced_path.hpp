#ifndef PERFBENCH_TRACED_PATH_HPP
#define PERFBENCH_TRACED_PATH_HPP

#include <memory>
#include <vector>

#include "core/pipeliner.hpp"
#include "machine/machine_model.hpp"
#include "program/program_compiler.hpp"
#include "service/model_registry.hpp"
#include "service/schedule_cache.hpp"
#include "service/schedule_service.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/** Signature of a pipelining result (empty schedule when it failed). */
Signature pipelineSignature(const ims::ir::Loop& loop,
                            const ims::core::PipelineResult& result);

/** Signature of a program compile plus its equivalence diagnostics. */
Signature
programSignature(const ims::program::ProgramCompileResult& compiled,
                 const std::vector<ims::core::Diagnostic>& diagnostics);

/**
 * SoftwarePipeliner::pipeline recomposed from its layer calls, each in a
 * span: graph.build, graph.scc, sched.schedule, sched.verify,
 * sched.list_schedule, mii.min_dist, codegen.{generate, lifetimes,
 * regalloc} and, when sim verification is on, sim.spec and every
 * engine per trip (with codegen.kernel_only before sim.kernel_only).
 */
ims::core::PipelineResult
tracedPipeline(const ims::ir::Loop& loop,
               const ims::machine::MachineModel& machine,
               const ims::core::PipelinerOptions& options, Tracer& tracer,
               TraceCounts& counts);

/** What the recomposed service path answered. */
struct TracedResponse
{
    std::shared_ptr<const ims::ir::Loop> loop;
    std::shared_ptr<const ims::core::PipelineResult> result;
    bool hit = false;
};

/**
 * ScheduleService::scheduleNow recomposed: service.model_lookup,
 * ir.parse, ir.print, service.options_codec, service.cache_key,
 * service.cache_lookup and, on a miss, the traced pipeline followed by
 * service.cache_insert into `cache`.
 */
TracedResponse
tracedServiceRequest(const ims::service::ServiceRequest& request,
                     const ims::service::ModelRegistry& registry,
                     ims::service::ScheduleCache& cache,
                     const ims::core::PipelinerOptions& defaults,
                     Tracer& tracer, TraceCounts& counts);

/**
 * A program request recomposed: program.compile, then the equivalence
 * oracle as program.compile plus program.exec_sequential and
 * program.exec_compiled per trip.
 */
Signature
tracedProgramRequest(const ims::program::Program& program,
                     const ims::program::ProgramCompiler& compiler,
                     const std::vector<int>& trips, std::uint64_t seed,
                     Tracer& tracer);

} // namespace perfbench

#endif // PERFBENCH_TRACED_PATH_HPP
