#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ir/loop.hpp"
#include "program/program.hpp"
#include "trace.hpp"

namespace perfbench {

enum class WorkloadKind
{
    /** Kernel library + seeded fuzz loops, each request a verified miss. */
    kColdVerified,
    /** The same texts in a skewed stream, every request a cache hit. */
    kHotReplay,
    /** The seeded Table 3 corpus through SoftwarePipeliner::pipeline. */
    kCorpusSchedule,
    /** The program corpus: compile plus the equivalence oracle. */
    kProgramCompile,
};

const std::vector<std::string>& workloadNames();
std::optional<WorkloadKind> workloadByName(const std::string& name);
const char* workloadName(WorkloadKind kind);

/** Trip counts every verified request simulates. */
inline const std::vector<int> kVerifyTrips = {0, 1, 2, 5, 17};
/** Trip count of the code_cycles_t17 metric. */
inline constexpr int kCycleTrip = 17;

/**
 * The seeded inputs of one workload: the unique request bodies and the
 * request list of one pass, as indices into them. Every pass of a run
 * replays the same list.
 */
struct Inputs
{
    WorkloadKind kind = WorkloadKind::kColdVerified;
    /** Service workloads: request loop texts. */
    std::vector<std::string> texts;
    /** corpus_schedule: the loops. */
    std::vector<ims::ir::Loop> loops;
    /** program_compile: the programs. */
    std::vector<ims::program::Program> programs;
    /** One pass, in order: indices into texts / loops / programs. */
    std::vector<std::uint32_t> requests;
    /** Seed of the simulated input data (sim and program execution). */
    std::uint64_t dataSeed = 0;
};

/** Build the inputs of `kind` from `seed`; deterministic in both. */
Inputs makeInputs(WorkloadKind kind, std::uint64_t seed);

/** What one request produced, as the checks and exact metrics need it. */
struct RequestOutcome
{
    /** Why the request counts as failed; empty when it is correct. */
    std::string failure;
    int ii = 0;
    int mii = 0;
    /** Kernel-only cycles at kCycleTrip (compressed program cycles). */
    long long cycles = 0;
    /** Operations in the generated code (compiled program). */
    long long codeOps = 0;
};

/**
 * The observable result the traced path must reproduce: the schedule,
 * the generated-code listing and the diagnostic codes.
 */
struct Signature
{
    int ii = 0;
    std::vector<int> times;
    std::vector<int> alternatives;
    std::string listing;
    std::vector<std::string> codes;

    bool operator==(const Signature&) const = default;
};

/** Ratio counters the traced path gathers beside its spans. */
struct TraceCounts
{
    std::uint64_t cacheLookups = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t scheduledLoops = 0;
    std::uint64_t scheduledOps = 0;
    std::uint64_t attempts = 0;
    std::uint64_t steps = 0;
    std::uint64_t minDistInnerSteps = 0;
};

/**
 * One workload after set-up. `call` is the only timed part of a request:
 * it makes the workload's public facade call(s) and keeps the result;
 * `finish` checks and releases it. The traced path recomposes the same
 * facade from its layer calls, each wrapped in a span.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    std::size_t requestCount() const { return inputs_.requests.size(); }

    /** Untimed per-pass preparation (e.g. a fresh, empty service). */
    virtual void beginPass() {}
    /** Untimed preparation before the first traced request. */
    virtual void prepareTrace() {}

    /** The timed facade call for request `index` of the pass. */
    virtual void call(std::size_t index) = 0;
    /** Signature of the last `call`'s result (before `finish`). */
    virtual Signature facadeSignature() const = 0;
    /** Check and release the last `call`'s result. */
    virtual RequestOutcome finish(std::size_t index) = 0;

    /** The recomposed, span-wrapped path for request `index`. */
    virtual Signature traced(std::size_t index, Tracer& tracer,
                             TraceCounts& counts) = 0;

  protected:
    explicit Workload(Inputs inputs) : inputs_(std::move(inputs)) {}

    Inputs inputs_;
};

/**
 * The whole set-up of a workload: input generation, rendering requests
 * to text, warming the cache and computing the oracles.
 */
std::unique_ptr<Workload> setUpWorkload(WorkloadKind kind,
                                        std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
