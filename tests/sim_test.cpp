#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/pipeliner.hpp"
#include "ir/loop_builder.hpp"
#include "machine/cydra5.hpp"
#include "codegen/kernel_only.hpp"
#include "sim/issue_stream.hpp"
#include "sim/memory.hpp"
#include "sim/pipeline_simulator.hpp"
#include "sim/section_executor.hpp"
#include "sim/sequential_interpreter.hpp"
#include "sim/value.hpp"
#include "support/error.hpp"
#include "workloads/kernels.hpp"

namespace {

using namespace ims;
using ir::Opcode;

/** sim::evaluate over a braced operand list. */
sim::Value
evaluate(Opcode opcode, std::initializer_list<sim::Value> sources)
{
    return sim::evaluate(opcode, sources.begin(),
                         static_cast<int>(sources.size()));
}

TEST(ValueTest, OpcodeSemantics)
{
    EXPECT_DOUBLE_EQ(evaluate(Opcode::kAdd, {2, 3}), 5);
    EXPECT_DOUBLE_EQ(evaluate(Opcode::kSub, {2, 3}), -1);
    EXPECT_DOUBLE_EQ(evaluate(Opcode::kMul, {2, 3}), 6);
    EXPECT_DOUBLE_EQ(evaluate(Opcode::kDiv, {6, 3}), 2);
    EXPECT_DOUBLE_EQ(evaluate(Opcode::kDiv, {6, 0}), 0); // total fn
    EXPECT_DOUBLE_EQ(evaluate(Opcode::kSqrt, {-9}), 3);
    EXPECT_DOUBLE_EQ(evaluate(Opcode::kMin, {2, 3}), 2);
    EXPECT_DOUBLE_EQ(evaluate(Opcode::kMax, {2, 3}), 3);
    EXPECT_DOUBLE_EQ(evaluate(Opcode::kAbs, {-4}), 4);
    EXPECT_DOUBLE_EQ(evaluate(Opcode::kCmpGt, {3, 2}), 1);
    EXPECT_DOUBLE_EQ(evaluate(Opcode::kCmpGt, {2, 3}), 0);
    EXPECT_DOUBLE_EQ(evaluate(Opcode::kPredSet, {1, 0}), 1);
    EXPECT_DOUBLE_EQ(evaluate(Opcode::kPredClear, {}), 0);
    EXPECT_DOUBLE_EQ(evaluate(Opcode::kSelect, {1, 7, 9}), 7);
    EXPECT_DOUBLE_EQ(evaluate(Opcode::kSelect, {0, 7, 9}), 9);
    EXPECT_DOUBLE_EQ(evaluate(Opcode::kCopy, {42}), 42);
    EXPECT_DOUBLE_EQ(evaluate(Opcode::kAddrAdd, {8, 8}), 16);
    EXPECT_DOUBLE_EQ(evaluate(Opcode::kAddrSub, {8, 3}), 5);
}

TEST(MemoryTest, MarginSupportsNegativeIndices)
{
    ir::LoopBuilder b("m");
    b.recurrence("ax");
    b.op(Opcode::kAddrAdd, "ax", {b.reg("ax", 3), b.imm(24)});
    b.load("x", "X", -1, b.reg("ax"));
    b.store("Y", 0, b.reg("ax"), b.reg("x"));
    b.closeLoopBackSubstituted();
    const auto loop = b.build();

    sim::Memory memory(loop, 10, 4);
    memory.write(0, -3, 7.5);
    EXPECT_DOUBLE_EQ(memory.read(0, -3), 7.5);
    EXPECT_DOUBLE_EQ(memory.read(0, 0), 0.0);
    EXPECT_THROW(memory.read(0, -5), support::Error);
}

TEST(MemoryTest, SnapshotAndEquality)
{
    ir::LoopBuilder b("m");
    b.recurrence("ax");
    b.op(Opcode::kAddrAdd, "ax", {b.reg("ax", 3), b.imm(24)});
    b.store("Y", 0, b.reg("ax"), b.imm(1.0));
    b.closeLoopBackSubstituted();
    const auto loop = b.build();

    sim::Memory a(loop, 4, 2);
    sim::Memory c(loop, 4, 2);
    EXPECT_TRUE(a == c);
    a.write(0, 1, 3.0);
    EXPECT_FALSE(a == c);
    c.write(0, 1, 3.0);
    EXPECT_TRUE(a == c);
    const auto snap = a.snapshot(0, 0, 3);
    EXPECT_DOUBLE_EQ(snap[1], 3.0);
}

TEST(MemoryTest, AccessOutsideTheMarginThrows)
{
    // Iteration 0 reads X[-3], one cell below a margin of 2.
    ir::LoopBuilder b("out_of_bounds");
    b.liveIn("a");
    b.load("x", "X", -3, b.reg("a"));
    b.store("Y", 0, b.reg("a"), b.reg("x"));
    const ir::Loop loop = b.build();
    sim::SimSpec spec;
    spec.tripCount = 4;
    spec.margin = 2;
    try {
        sim::runSequential(loop, spec);
        FAIL() << "must throw";
    } catch (const support::Error& e) {
        EXPECT_STREQ(e.what(), "array access out of simulated bounds "
                               "(index -3); increase the margin");
    }
}

TEST(SequentialTest, DaxpyComputesExactValues)
{
    const auto w = workloads::kernelByName("daxpy");
    sim::SimSpec spec;
    spec.tripCount = 5;
    spec.margin = 8;
    spec.liveIn["a"] = 2.0;
    std::vector<double> x = {1, 2, 3, 4, 5};
    std::vector<double> y = {10, 20, 30, 40, 50};
    spec.arrays["X"] = {0, x};
    spec.arrays["Y"] = {0, y};
    const auto result = sim::runSequential(w.loop, spec);
    // Find the Y array id.
    for (ir::ArrayId arr = 0; arr < w.loop.numArrays(); ++arr) {
        if (w.loop.arrays()[arr].name != "Y")
            continue;
        for (int i = 0; i < 5; ++i) {
            EXPECT_DOUBLE_EQ(result.memory.read(arr, i),
                             y[i] + 2.0 * x[i])
                << i;
        }
    }
}

TEST(SequentialTest, FirstOrderRecurrenceUsesSeed)
{
    const auto w = workloads::kernelByName("first_order_rec");
    sim::SimSpec spec;
    spec.tripCount = 3;
    spec.liveIn["a"] = 0.5;
    spec.seeds["x"] = {8.0}; // x_{-1}
    spec.arrays["B"] = {0, {1.0, 1.0, 1.0}};
    const auto result = sim::runSequential(w.loop, spec);
    // x_0 = .5*8+1 = 5; x_1 = 3.5; x_2 = 2.75.
    EXPECT_DOUBLE_EQ(result.finalRegisters.at("x"), 2.75);
}

TEST(SequentialTest, GuardFalseSkipsStoreAndZeroesDest)
{
    const auto w = workloads::kernelByName("cond_store");
    sim::SimSpec spec;
    spec.tripCount = 4;
    spec.arrays["X"] = {0, {1.0, -1.0, 2.0, -2.0}};
    spec.arrays["Y"] = {0, {9.0, 9.0, 9.0, 9.0}};
    const auto result = sim::runSequential(w.loop, spec);
    for (ir::ArrayId arr = 0; arr < w.loop.numArrays(); ++arr) {
        if (w.loop.arrays()[arr].name != "Y")
            continue;
        EXPECT_DOUBLE_EQ(result.memory.read(arr, 0), 1.0);
        EXPECT_DOUBLE_EQ(result.memory.read(arr, 1), 9.0); // kept
        EXPECT_DOUBLE_EQ(result.memory.read(arr, 2), 2.0);
        EXPECT_DOUBLE_EQ(result.memory.read(arr, 3), 9.0); // kept
    }
}

TEST(SequentialTest, MaxReduceTracksRunningMaximum)
{
    const auto w = workloads::kernelByName("max_reduce");
    sim::SimSpec spec;
    spec.tripCount = 4;
    spec.liveIn["m"] = -100.0; // seed fallback for m[-1]
    spec.arrays["X"] = {0, {3.0, 9.0, 1.0, 4.0}};
    const auto result = sim::runSequential(w.loop, spec);
    EXPECT_DOUBLE_EQ(result.finalRegisters.at("m"), 9.0);
}

TEST(SequentialTest, MemoryRecurrencePropagates)
{
    const auto w = workloads::kernelByName("mem_recurrence");
    sim::SimSpec spec;
    spec.tripCount = 3;
    spec.liveIn["r"] = 2.0;
    std::vector<double> a_init = {5.0}; // A[-1]
    spec.arrays["A"] = {-1, a_init};
    spec.arrays["B"] = {0, {1.0, 1.0, 1.0}};
    const auto result = sim::runSequential(w.loop, spec);
    // A[0] = 5*2+1 = 11; A[1] = 23; A[2] = 47.
    for (ir::ArrayId arr = 0; arr < w.loop.numArrays(); ++arr) {
        if (w.loop.arrays()[arr].name == "A") {
            EXPECT_DOUBLE_EQ(result.memory.read(arr, 0), 11.0);
            EXPECT_DOUBLE_EQ(result.memory.read(arr, 1), 23.0);
            EXPECT_DOUBLE_EQ(result.memory.read(arr, 2), 47.0);
        }
    }
}

TEST(SequentialTest, StridedAccessesReachStridedCells)
{
    const auto w = workloads::kernelByName("iccg_like");
    sim::SimSpec spec = workloads::makeSimSpec(w.loop, 6, 3);
    EXPECT_NO_THROW(sim::runSequential(w.loop, spec));
}

TEST(SequentialTest, RejectsNonTopologicalBodies)
{
    // A body reading a same-iteration value defined later in program
    // order must be diagnosed.
    ir::Loop loop("bad_order");
    const auto x = loop.addRegister({"x", false, false});
    const auto y = loop.addRegister({"y", false, false});
    const auto a = loop.addRegister({"a", false, true});
    ir::Operation first;
    first.opcode = Opcode::kCopy;
    first.dest = y;
    first.sources = {ir::Operand::makeReg(x)}; // x defined below
    loop.addOperation(first);
    ir::Operation second;
    second.opcode = Opcode::kCopy;
    second.dest = x;
    second.sources = {ir::Operand::makeReg(a)};
    loop.addOperation(second);

    sim::SimSpec spec;
    spec.tripCount = 2;
    EXPECT_THROW(sim::runSequential(loop, spec), support::Error);
}

TEST(PipelineSimTest, CyclesFollowExecutionTimeModel)
{
    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName("daxpy");
    core::SoftwarePipeliner pipeliner(machine);
    const auto artifacts = pipeliner.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();
    const auto spec = workloads::makeSimSpec(w.loop, 40, 7);
    const auto result =
        sim::runPipelined(w.loop, artifacts.outcome.schedule, spec);
    EXPECT_EQ(result.cycles,
              39LL * artifacts.outcome.schedule.ii +
                  artifacts.outcome.schedule.scheduleLength);
}

TEST(PipelineSimTest, ScheduleBreakingAFlowDependenceThrows)
{
    // The copy issues at cycle 0, before the load defining x.
    ir::LoopBuilder b("broken_flow");
    b.liveIn("a");
    b.load("x", "X", 0, b.reg("a"));
    b.op(Opcode::kCopy, "y", {b.reg("x")});
    const ir::Loop loop = b.build();
    sched::ScheduleResult schedule;
    schedule.ii = 2;
    schedule.times = {1, 0};
    schedule.alternatives = {0, 0};
    schedule.scheduleLength = 2;
    sim::SimSpec spec;
    spec.tripCount = 3;
    try {
        sim::runPipelined(loop, schedule, spec);
        FAIL() << "must throw";
    } catch (const support::Error& e) {
        EXPECT_STREQ(e.what(),
                     "read of register 'x' at iteration 0 before its "
                     "definition executed (body not in topological "
                     "order, or schedule bug)");
    }
}

TEST(PipelineSimTest, MatchesSequentialOnEveryKernel)
{
    const auto machine = machine::cydra5();
    core::SoftwarePipeliner pipeliner(machine);
    for (const auto& w : workloads::kernelLibrary()) {
        const auto artifacts = pipeliner.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();
        const auto spec = workloads::makeSimSpec(w.loop, 30, 11);
        const auto seq = sim::runSequential(w.loop, spec);
        const auto pipe =
            sim::runPipelined(w.loop, artifacts.outcome.schedule, spec);
        EXPECT_TRUE(sim::equivalent(seq, pipe.state)) << w.loop.name();
    }
}

TEST(PipelineSimTest, LowTripCountsMatchSequentialEverywhere)
{
    // Low-trip-count audit: every trip count below the stage count —
    // including zero — through both pipelined execution schemas. A
    // zero-trip loop must leave the final registers EMPTY like the
    // sequential reference, not report seed values.
    const auto machine = machine::cydra5();
    core::SoftwarePipeliner pipeliner(machine);
    for (const char* name :
         {"daxpy", "mem_recurrence", "tridiag", "cond_store"}) {
        const auto w = workloads::kernelByName(name);
        const auto artifacts =
            pipeliner.pipeline(core::PipelineRequest(w.loop))
                .artifactsOrThrow();
        const auto kernel_only = codegen::generateKernelOnly(
            w.loop, artifacts.outcome.schedule);
        for (int trip = 0; trip < kernel_only.stageCount; ++trip) {
            const auto spec = workloads::makeSimSpec(w.loop, trip, 23);
            const auto seq = sim::runSequential(w.loop, spec);
            const auto ko = sim::runKernelOnly(w.loop, kernel_only, spec);
            EXPECT_TRUE(sim::equivalent(seq, ko))
                << name << " kernel-only trip " << trip;
            const auto pipe = sim::runPipelined(
                w.loop, artifacts.outcome.schedule, spec);
            EXPECT_TRUE(sim::equivalent(seq, pipe.state))
                << name << " pipelined trip " << trip;
        }
    }
}

TEST(PipelineSimTest, ZeroTripKernelOnlyLeavesRegistersEmpty)
{
    const auto machine = machine::cydra5();
    core::SoftwarePipeliner pipeliner(machine);
    const auto w = workloads::kernelByName("dot_raw");
    const auto artifacts =
        pipeliner.pipeline(core::PipelineRequest(w.loop))
            .artifactsOrThrow();
    const auto kernel_only =
        codegen::generateKernelOnly(w.loop, artifacts.outcome.schedule);
    const auto spec = workloads::makeSimSpec(w.loop, 0, 23);
    const auto ko = sim::runKernelOnly(w.loop, kernel_only, spec);
    EXPECT_TRUE(ko.finalRegisters.empty());
    EXPECT_TRUE(sim::runSequential(w.loop, spec).finalRegisters.empty());
}

TEST(PipelineSimTest, TripCountOfOneStillWorks)
{
    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName("daxpy");
    core::SoftwarePipeliner pipeliner(machine);
    const auto artifacts = pipeliner.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();
    const auto spec = workloads::makeSimSpec(w.loop, 1, 5);
    const auto seq = sim::runSequential(w.loop, spec);
    const auto pipe =
        sim::runPipelined(w.loop, artifacts.outcome.schedule, spec);
    EXPECT_TRUE(sim::equivalent(seq, pipe.state));
}

ir::ArrayId
arrayNamed(const ir::Loop& loop, const std::string& name)
{
    for (ir::ArrayId id = 0; id < loop.numArrays(); ++id) {
        if (loop.arrays()[id].name == name)
            return id;
    }
    ADD_FAILURE() << "no array " << name;
    return 0;
}

TEST(IssueStreamTest, FlatRowsRunStoresLastAndOlderIterationsFirst)
{
    // II = 1 and a hand-made schedule. Iteration i's store to A[i + 1]
    // shares a cycle with iteration i + 1's load of A[i + 1]: the load
    // samples the old value. Iteration i's store to C[i + 1] (stage 1)
    // shares a cycle with iteration i + 1's store to C[i + 1] (stage 0):
    // the later iteration stores last, though its op id is lower.
    ir::LoopBuilder b("same_cycle");
    b.liveIn("a");
    b.load("x", "A", 0, b.reg("a"));
    b.store("A", 1, b.reg("a"), b.imm(7.0));
    b.store("B", 0, b.reg("a"), b.reg("x"));
    b.store("C", 0, b.reg("a"), b.imm(1.0));
    b.store("C", 1, b.reg("a"), b.imm(2.0));
    const ir::Loop loop = b.build();
    sched::ScheduleResult schedule;
    schedule.ii = 1;
    schedule.times = {0, 1, 1, 0, 1};
    schedule.alternatives = {0, 0, 0, 0, 0};
    schedule.scheduleLength = 2;

    const sim::IssueStream stream = sim::lowerSchedule(loop, schedule);
    ASSERT_EQ(stream.numRows(), 1);
    std::vector<std::pair<ir::OpId, int>> row;
    for (const auto& slot : stream.slots)
        row.emplace_back(slot.op, slot.iterationOffset);
    EXPECT_EQ(row, (std::vector<std::pair<ir::OpId, int>>{
                       {0, 0}, {1, -1}, {2, -1}, {4, -1}, {3, 0}}));

    sim::SimSpec spec;
    spec.tripCount = 4;
    spec.margin = 2;
    spec.arrays["A"] = {0, {10, 11, 12, 13, 14}};
    const auto pipe = sim::runPipelined(loop, schedule, spec).state;
    const ir::ArrayId B = arrayNamed(loop, "B");
    const ir::ArrayId C = arrayNamed(loop, "C");
    for (int i = 0; i < 4; ++i) {
        EXPECT_DOUBLE_EQ(pipe.memory.read(B, i), 10.0 + i) << i;
        EXPECT_DOUBLE_EQ(pipe.memory.read(C, i), 1.0) << i;
    }
    EXPECT_DOUBLE_EQ(pipe.memory.read(C, 4), 2.0);
    // The sequential order sees the stores to A (the schedule breaks
    // that memory dependence); both agree on C.
    const auto seq = sim::runSequential(loop, spec);
    EXPECT_DOUBLE_EQ(seq.memory.read(B, 1), 7.0);
    for (int i = 0; i <= 4; ++i)
        EXPECT_DOUBLE_EQ(seq.memory.read(C, i), pipe.memory.read(C, i));
}

/** The three pipelined forms of one loop, each its own artifact. */
struct Forms
{
    sched::ScheduleResult schedule;
    codegen::GeneratedCode code;
    codegen::KernelOnlyCode kernelOnly;
};

/** Names of the forms that diverge from, or fail against, sequential. */
std::set<std::string>
failingForms(const ir::Loop& loop, const Forms& forms)
{
    std::set<std::string> failing;
    const auto check = [&](const char* name, const sim::SimResult& expected,
                           auto&& run) {
        try {
            if (sim::equivalent(expected, run()))
                return;
        } catch (const support::Error&) {
        }
        failing.insert(name);
    };
    const int stages = forms.code.kernel.stageCount;
    for (const int trip : {2, stages, stages + 3}) {
        const auto spec = workloads::makeSimSpec(loop, trip, 31);
        const auto seq = sim::runSequential(loop, spec);
        check("pipelined", seq, [&] {
            return sim::runPipelined(loop, forms.schedule, spec).state;
        });
        if (trip >= stages) {
            check("generated_code", seq, [&] {
                return sim::runGeneratedCode(loop, forms.code, spec);
            });
        }
        check("kernel_only", seq, [&] {
            return sim::runKernelOnly(loop, forms.kernelOnly, spec);
        });
    }
    return failing;
}

TEST(IssueStreamTest, EachLoweringChecksOnlyItsOwnArtifact)
{
    const auto w = workloads::kernelByName("daxpy");
    const ir::Loop& loop = w.loop;
    const auto artifacts =
        core::SoftwarePipeliner(machine::cydra5())
            .pipeline(core::PipelineRequest(loop))
            .artifactsOrThrow();
    const Forms intact{
        artifacts.outcome.schedule, artifacts.code,
        codegen::generateKernelOnly(loop, artifacts.outcome.schedule)};
    const int last_stage = intact.kernelOnly.stageCount - 1;
    ASSERT_GE(last_stage, 1);
    EXPECT_TRUE(failingForms(loop, intact).empty());

    // Schedule: a consumer issues one cycle before its producer.
    Forms bad_schedule = intact;
    bool moved = false;
    for (const auto& op : loop.operations()) {
        if (moved || op.isBranch())
            continue;
        for (const auto& src : op.sources) {
            if (!src.isRegister() || src.distance != 0)
                continue;
            const ir::OpId producer = loop.definingOp(src.reg);
            if (producer < 0 || intact.schedule.times[producer] < 1)
                continue;
            bad_schedule.schedule.times[op.id] =
                intact.schedule.times[producer] - 1;
            moved = true;
            break;
        }
    }
    ASSERT_TRUE(moved);
    EXPECT_EQ(failingForms(loop, bad_schedule),
              std::set<std::string>{"pipelined"});

    // Generated code: an epilogue instance of the last iteration is
    // retagged to the one before, so the last iteration never runs it.
    Forms bad_code = intact;
    bool retagged = false;
    for (auto& cycle : bad_code.code.epilogue.cycles) {
        for (auto& instance : cycle) {
            if (!retagged && instance.iterationOffset == -1 &&
                !loop.operation(instance.op).isBranch()) {
                instance.iterationOffset = -2;
                retagged = true;
            }
        }
    }
    ASSERT_TRUE(retagged);
    EXPECT_EQ(failingForms(loop, bad_code),
              std::set<std::string>{"generated_code"});

    // Kernel-only code: a last-stage placement moves one stage later,
    // past the final repetition of the last iteration.
    Forms bad_kernel = intact;
    bool restaged = false;
    for (auto& cycle : bad_kernel.kernelOnly.cycles) {
        for (auto& placement : cycle) {
            if (!restaged && placement.stage == last_stage &&
                !loop.operation(placement.op).isBranch()) {
                placement.stage = last_stage + 1;
                restaged = true;
            }
        }
    }
    ASSERT_TRUE(restaged);
    EXPECT_EQ(failingForms(loop, bad_kernel),
              std::set<std::string>{"kernel_only"});
}

} // namespace
