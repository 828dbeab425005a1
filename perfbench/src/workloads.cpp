#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/pipeliner.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "machine/cydra5.hpp"
#include "program/program_executor.hpp"
#include "service/schedule_service.hpp"
#include "support/rng.hpp"
#include "traced_path.hpp"
#include "workloads/corpus.hpp"
#include "workloads/kernels.hpp"
#include "workloads/programs.hpp"
#include "workloads/random_loops.hpp"

namespace perfbench {

using namespace ims;

namespace {

// Work per pass. Sized so one pass lasts a few hundred milliseconds on a
// 4-core x86 host: long enough that a pass averages over the host's
// short-term speed changes, short enough for ten or more passes per run.
constexpr int kFuzzLoops = 400;
constexpr int kHotRequests = 6000;
constexpr int kCorpusRounds = 3;
constexpr int kProgramRounds = 30;

// The loop and program populations are fixed; the seed picks the request
// order, the hot stream's order and the simulated input data. A seeded
// population would move the exact metrics and the request mix from seed
// to seed by more than the regressions they are meant to catch.
constexpr std::uint64_t kFuzzPopulationSeed = 7;

constexpr std::uint64_t kSaltOrder = 0x0DE20002ULL;
constexpr std::uint64_t kSaltData = 0xDA7A0003ULL;

const std::vector<std::string> kNames = {
    "cold_verified", "hot_replay", "corpus_schedule", "program_compile"};

template <typename T>
void
shuffle(std::vector<T>& items, support::Rng& rng)
{
    for (std::size_t i = items.size(); i > 1; --i) {
        const std::size_t j = rng.next() % i;
        std::swap(items[i - 1], items[j]);
    }
}

std::vector<std::uint32_t>
permutation(std::size_t n, support::Rng& rng)
{
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    shuffle(order, rng);
    return order;
}

std::vector<std::string>
serviceTexts()
{
    std::vector<std::string> texts;
    for (const auto& workload : workloads::kernelLibrary())
        texts.push_back(ir::printLoop(workload.loop));
    support::Rng rng(kFuzzPopulationSeed);
    const auto profile = workloads::fuzzProfile();
    for (int i = 0; i < kFuzzLoops; ++i)
        texts.push_back(ir::printLoop(workloads::generateLoop(
            rng, "bench_fuzz_" + std::to_string(i), profile)));
    return texts;
}

RequestOutcome
pipelineOutcome(const core::PipelineResult& result)
{
    RequestOutcome outcome;
    for (const auto& diagnostic : result.diagnostics) {
        if (outcome.failure.empty())
            outcome.failure = diagnostic.code + ": " + diagnostic.message;
    }
    if (!result.ok()) {
        if (outcome.failure.empty())
            outcome.failure = "pipelining failed without a diagnostic";
        return outcome;
    }
    const auto& artifacts = *result.artifacts;
    outcome.ii = result.telemetry.ii;
    outcome.mii = result.telemetry.mii;
    outcome.cycles = static_cast<long long>(
                         kCycleTrip + artifacts.code.kernel.stageCount - 1) *
                     outcome.ii;
    outcome.codeOps = artifacts.code.prologue.numInstances() +
                      artifacts.code.kernelSection.numInstances() +
                      artifacts.code.epilogue.numInstances();
    if (outcome.failure.empty() && outcome.ii < outcome.mii)
        outcome.failure = "II " + std::to_string(outcome.ii) +
                          " below MII " + std::to_string(outcome.mii);
    return outcome;
}

/** cold_verified and hot_replay: requests through ScheduleService. */
class ServiceWorkload final : public Workload
{
  public:
    explicit ServiceWorkload(Inputs inputs)
        : Workload(std::move(inputs)),
          machine_(machine::cydra5()),
          options_(core::PipelinerOptions{}.withSimVerification(
              kVerifyTrips, inputs_.dataSeed))
    {
        for (const auto& text : inputs_.texts) {
            service::ServiceRequest request;
            request.loopText = text;
            requests_.push_back(std::move(request));
        }
        if (inputs_.kind != WorkloadKind::kHotReplay)
            return;
        // The oracle: a cold, cache-free pipeline of every text.
        const core::SoftwarePipeliner pipeliner(machine_, options_);
        for (const auto& text : inputs_.texts) {
            const ir::Loop loop = ir::parseLoop(text);
            oracle_.push_back(service::fingerprintResult(
                loop, machine_,
                pipeliner.pipeline(core::PipelineRequest(loop))));
        }
        // Warm the cache so every timed request is a hit.
        service_ = makeService();
        for (const auto& request : requests_)
            service_->scheduleNow(request);
    }

    void
    beginPass() override
    {
        if (inputs_.kind == WorkloadKind::kColdVerified) {
            service_.reset();
            service_ = makeService();
            tracedCache_ = makeCache();
        }
    }

    void
    prepareTrace() override
    {
        tracedCache_ = makeCache();
        if (inputs_.kind != WorkloadKind::kHotReplay)
            return;
        Tracer warmup;
        TraceCounts ignored;
        for (const auto& request : requests_)
            tracedServiceRequest(request, registry_, *tracedCache_, options_,
                                 warmup, ignored);
    }

    void
    call(std::size_t index) override
    {
        response_ = service_->scheduleNow(requests_[inputs_.requests[index]]);
    }

    Signature
    facadeSignature() const override
    {
        if (!response_.ok())
            return Signature{0, {}, {}, "", {response_.errorCode}};
        return pipelineSignature(*response_.loop, *response_.result);
    }

    RequestOutcome
    finish(std::size_t index) override
    {
        const service::ServiceResponse response = std::move(response_);
        response_ = service::ServiceResponse{};
        RequestOutcome outcome;
        if (!response.ok()) {
            outcome.failure = response.errorCode + ": " +
                              response.errorMessage;
            return outcome;
        }
        outcome = pipelineOutcome(*response.result);
        if (!outcome.failure.empty() ||
            inputs_.kind != WorkloadKind::kHotReplay)
            return outcome;
        if (!response.cacheHit)
            outcome.failure = "hot request missed the cache";
        else if (service::fingerprintResult(*response.loop,
                                            response.model->model,
                                            *response.result) !=
                 oracle_[inputs_.requests[index]])
            outcome.failure = "cache hit differs from the cold oracle";
        return outcome;
    }

    Signature
    traced(std::size_t index, Tracer& tracer, TraceCounts& counts) override
    {
        const auto& request = requests_[inputs_.requests[index]];
        const TracedResponse response = tracer.request([&] {
            return tracedServiceRequest(request, registry_, *tracedCache_,
                                        options_, tracer, counts);
        });
        return pipelineSignature(*response.loop, *response.result);
    }

  private:
    std::unique_ptr<service::ScheduleService>
    makeService() const
    {
        return std::make_unique<service::ScheduleService>(
            service::ServiceOptions{}
                .withPipelineOptions(options_)
                .withThreads(1)
                .withCache(makeCacheOptions()));
    }

    std::unique_ptr<service::ScheduleCache>
    makeCache() const
    {
        return std::make_unique<service::ScheduleCache>(makeCacheOptions());
    }

    service::CacheOptions
    makeCacheOptions() const
    {
        return service::CacheOptions{inputs_.texts.size() * 2, 16};
    }

    machine::MachineModel machine_;
    core::PipelinerOptions options_;
    std::vector<service::ServiceRequest> requests_;
    std::vector<std::uint64_t> oracle_;
    std::unique_ptr<service::ScheduleService> service_;
    service::ServiceResponse response_;

    service::ModelRegistry registry_;
    std::unique_ptr<service::ScheduleCache> tracedCache_;
};

/** corpus_schedule: SoftwarePipeliner::pipeline, structural verify on. */
class CorpusWorkload final : public Workload
{
  public:
    explicit CorpusWorkload(Inputs inputs)
        : Workload(std::move(inputs)), pipeliner_(machine::cydra5())
    {
    }

    void
    call(std::size_t index) override
    {
        last_ = index;
        result_ = pipeliner_.pipeline(core::PipelineRequest(loopAt(index)));
    }

    Signature
    facadeSignature() const override
    {
        return pipelineSignature(loopAt(last_), result_);
    }

    RequestOutcome
    finish(std::size_t) override
    {
        const core::PipelineResult result = std::move(result_);
        result_ = core::PipelineResult{};
        return pipelineOutcome(result);
    }

    Signature
    traced(std::size_t index, Tracer& tracer, TraceCounts& counts) override
    {
        const core::PipelineResult result = tracer.request([&] {
            return tracedPipeline(loopAt(index), pipeliner_.machine(),
                                  pipeliner_.options(), tracer, counts);
        });
        return pipelineSignature(loopAt(index), result);
    }

  private:
    const ir::Loop&
    loopAt(std::size_t index) const
    {
        return inputs_.loops[inputs_.requests[index]];
    }

    core::SoftwarePipeliner pipeliner_;
    core::PipelineResult result_;
    std::size_t last_ = 0;
};

/** program_compile: compile, then the equivalence oracle. */
class ProgramWorkload final : public Workload
{
  public:
    explicit ProgramWorkload(Inputs inputs)
        : Workload(std::move(inputs)), compiler_(machine::cydra5())
    {
    }

    void
    call(std::size_t index) override
    {
        const program::Program& program = programAt(index);
        compiled_.emplace(compiler_.compile(program));
        diagnostics_ = program::programEquivalenceDiagnostics(
            program, compiler_.machine(), compiler_.options(), kVerifyTrips,
            inputs_.dataSeed);
    }

    Signature
    facadeSignature() const override
    {
        return programSignature(*compiled_, diagnostics_);
    }

    RequestOutcome
    finish(std::size_t) override
    {
        RequestOutcome outcome;
        const program::ProgramCompileResult result = std::move(*compiled_);
        compiled_.reset();
        const std::vector<core::Diagnostic> diagnostics =
            std::move(diagnostics_);
        diagnostics_.clear();
        for (const auto& diagnostic : result.diagnostics) {
            if (diagnostic.severity == core::Diagnostic::Severity::kError &&
                outcome.failure.empty())
                outcome.failure = diagnostic.code + ": " + diagnostic.message;
        }
        for (const auto& diagnostic : diagnostics) {
            if (outcome.failure.empty())
                outcome.failure = diagnostic.code + ": " + diagnostic.message;
        }
        if (!result.ok()) {
            if (outcome.failure.empty())
                outcome.failure = "compile failed without a diagnostic";
            return outcome;
        }
        const program::CompiledProgram& compiled = *result.compiled;
        outcome.ii = compiled.loop.schedule.ii;
        outcome.mii = compiled.loop.mii;
        outcome.cycles = compiled.compiledCycles(kCycleTrip);
        for (const auto& block : compiled.pre)
            outcome.codeOps += block.body.size();
        for (const auto& row : compiled.loop.body.cycles)
            outcome.codeOps += static_cast<long long>(row.size());
        for (const auto& block : compiled.post)
            outcome.codeOps += block.body.size();
        return outcome;
    }

    Signature
    traced(std::size_t index, Tracer& tracer, TraceCounts&) override
    {
        return tracer.request([&] {
            return tracedProgramRequest(programAt(index), compiler_,
                                        kVerifyTrips, inputs_.dataSeed,
                                        tracer);
        });
    }

  private:
    const program::Program&
    programAt(std::size_t index) const
    {
        return inputs_.programs[inputs_.requests[index]];
    }

    program::ProgramCompiler compiler_;
    std::optional<program::ProgramCompileResult> compiled_;
    std::vector<core::Diagnostic> diagnostics_;
};

} // namespace

const std::vector<std::string>&
workloadNames()
{
    return kNames;
}

std::optional<WorkloadKind>
workloadByName(const std::string& name)
{
    for (std::size_t i = 0; i < kNames.size(); ++i) {
        if (kNames[i] == name)
            return static_cast<WorkloadKind>(i);
    }
    return std::nullopt;
}

const char*
workloadName(WorkloadKind kind)
{
    return kNames[static_cast<std::size_t>(kind)].c_str();
}

Inputs
makeInputs(WorkloadKind kind, std::uint64_t seed)
{
    Inputs inputs;
    inputs.kind = kind;
    inputs.dataSeed = support::Rng(seed ^ kSaltData).next();
    support::Rng order(seed ^ kSaltOrder);
    switch (kind) {
    case WorkloadKind::kColdVerified:
        inputs.texts = serviceTexts();
        inputs.requests = permutation(inputs.texts.size(), order);
        break;
    case WorkloadKind::kHotReplay: {
        inputs.texts = serviceTexts();
        // Quadratic low-index bias, as bench_service draws it (builds
        // re-submit the same hot loops far more often than the tail),
        // taken at evenly spaced quantiles instead of random draws so
        // every seed sends the same mix, only in another order.
        const double n = static_cast<double>(inputs.texts.size());
        for (int i = 0; i < kHotRequests; ++i) {
            const double u = (i + 0.5) / kHotRequests;
            inputs.requests.push_back(static_cast<std::uint32_t>(
                std::min(n - 1.0, std::floor(u * u * n))));
        }
        shuffle(inputs.requests, order);
        break;
    }
    case WorkloadKind::kCorpusSchedule:
        for (auto& workload : workloads::buildCorpus())
            inputs.loops.push_back(std::move(workload.loop));
        for (int round = 0; round < kCorpusRounds; ++round) {
            const auto shuffled = permutation(inputs.loops.size(), order);
            inputs.requests.insert(inputs.requests.end(), shuffled.begin(),
                                   shuffled.end());
        }
        break;
    case WorkloadKind::kProgramCompile:
        for (auto& workload : workloads::programLibrary())
            inputs.programs.push_back(std::move(workload.program));
        for (int round = 0; round < kProgramRounds; ++round) {
            const auto shuffled = permutation(inputs.programs.size(), order);
            inputs.requests.insert(inputs.requests.end(), shuffled.begin(),
                                   shuffled.end());
        }
        break;
    }
    return inputs;
}

std::unique_ptr<Workload>
setUpWorkload(WorkloadKind kind, std::uint64_t seed)
{
    Inputs inputs = makeInputs(kind, seed);
    switch (kind) {
    case WorkloadKind::kColdVerified:
    case WorkloadKind::kHotReplay:
        return std::make_unique<ServiceWorkload>(std::move(inputs));
    case WorkloadKind::kCorpusSchedule:
        return std::make_unique<CorpusWorkload>(std::move(inputs));
    case WorkloadKind::kProgramCompile:
        return std::make_unique<ProgramWorkload>(std::move(inputs));
    }
    return nullptr;
}

} // namespace perfbench
