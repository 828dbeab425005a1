#include <gtest/gtest.h>

#include "core/pipeliner.hpp"
#include "frontend/region_builder.hpp"
#include "machine/cydra5.hpp"
#include "program/program_compiler.hpp"
#include "program/program_executor.hpp"
#include "sim/pipeline_simulator.hpp"
#include "sim/sequential_interpreter.hpp"
#include "support/error.hpp"
#include "workloads/kernels.hpp"

namespace {

using namespace ims;
using frontend::RegionBuilder;
using ir::Opcode;

/** `if (x[i] > 0) { y[i] = x[i]*x[i]; s += x[i]; }` */
ir::Loop
sumPositiveSquares()
{
    RegionBuilder r("sum_positive_squares");
    r.recurrence("s");
    r.recurrence("ax");
    r.assign(Opcode::kAddrAdd, "ax", {r.use("ax", 3), r.imm(24)});
    r.load("x", "X", 0, r.use("ax"));
    r.beginIf(r.use("x"));
    r.assign(Opcode::kMul, "sq", {r.use("x"), r.use("x")});
    r.store("Y", 0, r.use("ax"), r.use("sq"));
    r.assign(Opcode::kAdd, "s", {r.use("s"), r.use("x")});
    r.endIf();
    return r.finish();
}

/** `y[i] = x[i] > t ? hi : (x[i] > 0 ? x[i] : 0)` — nested hammock. */
ir::Loop
nestedClip()
{
    RegionBuilder r("nested_clip");
    r.liveIn("t").liveIn("hi");
    r.recurrence("ax");
    r.assign(Opcode::kAddrAdd, "ax", {r.use("ax", 3), r.imm(24)});
    r.load("x", "X", 0, r.use("ax"));
    r.assign(Opcode::kSub, "over", {r.use("x"), r.use("t")});
    r.beginIf(r.use("over"));
    r.assign(Opcode::kCopy, "y", {r.use("hi")});
    r.elseBranch();
    r.beginIf(r.use("x"));
    r.assign(Opcode::kCopy, "y", {r.use("x")});
    r.elseBranch();
    r.assign(Opcode::kCopy, "y", {r.imm(0.0)});
    r.endIf();
    r.endIf();
    r.store("Y", 0, r.use("ax"), r.use("y"));
    return r.finish();
}

/** Guarded stores on both paths of an if. */
ir::Loop
splitStreams()
{
    RegionBuilder r("split_streams");
    r.recurrence("ax");
    r.assign(Opcode::kAddrAdd, "ax", {r.use("ax", 3), r.imm(24)});
    r.load("x", "X", 0, r.use("ax"));
    r.beginIf(r.use("x"));
    r.store("P", 0, r.use("ax"), r.use("x"));
    r.elseBranch();
    r.store("N", 0, r.use("ax"), r.use("x"));
    r.endIf();
    return r.finish();
}

/** Reference computation for sumPositiveSquares. */
void
checkSumPositiveSquares(const ir::Loop& loop)
{
    sim::SimSpec spec;
    spec.tripCount = 6;
    spec.margin = 8;
    spec.arrays["X"] = {0, {1.0, -2.0, 3.0, -4.0, 5.0, 0.0}};
    spec.arrays["Y"] = {0, {9, 9, 9, 9, 9, 9}};
    const auto result = sim::runSequential(loop, spec);
    // s = 1 + 3 + 5 = 9 (x = 0 is not > 0).
    EXPECT_DOUBLE_EQ(result.finalRegister("s").value(), 9.0);
    for (ir::ArrayId arr = 0; arr < loop.numArrays(); ++arr) {
        if (loop.arrays()[arr].name != "Y")
            continue;
        EXPECT_DOUBLE_EQ(result.memory.read(arr, 0), 1.0);
        EXPECT_DOUBLE_EQ(result.memory.read(arr, 1), 9.0); // untouched
        EXPECT_DOUBLE_EQ(result.memory.read(arr, 2), 9.0);
        EXPECT_DOUBLE_EQ(result.memory.read(arr, 4), 25.0);
        EXPECT_DOUBLE_EQ(result.memory.read(arr, 5), 9.0); // x == 0
    }
}

TEST(RegionBuilderTest, IfConversionProducesValidPredicatedLoop)
{
    const auto loop = sumPositiveSquares();
    EXPECT_NO_THROW(loop.validate());
    // A guarded store and a select merge must exist.
    bool guarded_store = false, select = false, predset = false;
    for (const auto& op : loop.operations()) {
        guarded_store = guarded_store || (op.isStore() && op.guard);
        select = select || op.opcode == Opcode::kSelect;
        predset = predset || op.opcode == Opcode::kPredSet;
    }
    EXPECT_TRUE(guarded_store);
    EXPECT_TRUE(select);
    EXPECT_TRUE(predset);
}

TEST(RegionBuilderTest, SemanticsMatchSourceProgram)
{
    checkSumPositiveSquares(sumPositiveSquares());
}

TEST(RegionBuilderTest, PipelinesAndPreservesSemantics)
{
    const auto machine = machine::cydra5();
    core::SoftwarePipeliner pipeliner(machine);
    for (const auto& loop :
         {sumPositiveSquares(), nestedClip(), splitStreams()}) {
        const auto artifacts = pipeliner.pipeline(core::PipelineRequest(loop)).artifactsOrThrow();
        const auto spec = workloads::makeSimSpec(loop, 30, 17);
        const auto seq = sim::runSequential(loop, spec);
        const auto pipe =
            sim::runPipelined(loop, artifacts.outcome.schedule, spec);
        EXPECT_TRUE(sim::equivalent(seq, pipe.state)) << loop.name();
    }
}

TEST(RegionBuilderTest, NestedSelectsComputeTheRightValue)
{
    const auto loop = nestedClip();
    sim::SimSpec spec;
    spec.tripCount = 4;
    spec.margin = 8;
    spec.liveIn["t"] = 10.0;
    spec.liveIn["hi"] = 99.0;
    spec.arrays["X"] = {0, {20.0, 5.0, -3.0, 10.0}};
    const auto result = sim::runSequential(loop, spec);
    for (ir::ArrayId arr = 0; arr < loop.numArrays(); ++arr) {
        if (loop.arrays()[arr].name != "Y")
            continue;
        EXPECT_DOUBLE_EQ(result.memory.read(arr, 0), 99.0); // > t
        EXPECT_DOUBLE_EQ(result.memory.read(arr, 1), 5.0);  // 0 < x <= t
        EXPECT_DOUBLE_EQ(result.memory.read(arr, 2), 0.0);  // x <= 0
        EXPECT_DOUBLE_EQ(result.memory.read(arr, 3), 10.0); // == t edge
    }
}

TEST(RegionBuilderTest, ComplementaryStoresTouchDisjointStreams)
{
    const auto loop = splitStreams();
    sim::SimSpec spec;
    spec.tripCount = 4;
    spec.margin = 8;
    spec.arrays["X"] = {0, {2.0, -2.0, 3.0, -3.0}};
    const auto result = sim::runSequential(loop, spec);
    ir::ArrayId p = -1, n = -1;
    for (ir::ArrayId arr = 0; arr < loop.numArrays(); ++arr) {
        if (loop.arrays()[arr].name == "P")
            p = arr;
        if (loop.arrays()[arr].name == "N")
            n = arr;
    }
    EXPECT_DOUBLE_EQ(result.memory.read(p, 0), 2.0);
    EXPECT_DOUBLE_EQ(result.memory.read(n, 0), 0.0);
    EXPECT_DOUBLE_EQ(result.memory.read(n, 1), -2.0);
    EXPECT_DOUBLE_EQ(result.memory.read(p, 1), 0.0);
}

TEST(RegionBuilderTest, ErrorsOnMisuse)
{
    {
        RegionBuilder r("t");
        r.liveIn("a");
        EXPECT_THROW(r.assign(Opcode::kCopy, "a", {r.imm(1.0)}),
                     support::Error);
    }
    {
        RegionBuilder r("t");
        EXPECT_THROW(r.elseBranch(), support::Error);
        EXPECT_THROW(r.endIf(), support::Error);
    }
    {
        RegionBuilder r("t");
        r.liveIn("a");
        r.beginIf(r.use("a"));
        EXPECT_THROW(r.finish(), support::Error); // unclosed if
    }
    {
        // A branch-local temp goes out of scope at the join; reading it
        // afterwards is an error.
        RegionBuilder r("t");
        r.liveIn("a");
        r.beginIf(r.use("a"));
        r.assign(Opcode::kCopy, "fresh", {r.use("a")});
        EXPECT_NO_THROW(r.endIf());
        EXPECT_THROW(r.use("fresh"), support::Error);
    }
    {
        RegionBuilder r("t");
        r.liveIn("a");
        EXPECT_THROW(r.use("a", 2), support::Error); // not a recurrence
    }
}

TEST(RegionBuilderTest, RecurrenceCarryCopyAppended)
{
    const auto loop = sumPositiveSquares();
    bool carry = false;
    for (const auto& op : loop.operations()) {
        carry = carry ||
                (op.opcode == Opcode::kCopy && op.hasDest() &&
                 loop.reg(op.dest).name == "s");
    }
    EXPECT_TRUE(carry);
}

TEST(RegionBuilderTest, IfConvertedLoopCompilesAsFullProgram)
{
    // A RegionBuilder lowering dropped straight into the program-level
    // driver: pre-loop setup, the if-converted loop, a post-loop block
    // reading the exported reduction. Compiled execution must match the
    // sequential reference at trips below and above the stage count.
    program::Program p("frontend.sum_squares", sumPositiveSquares());
    program::Block setup("setup");
    setup.assign(Opcode::kMul, "scale", {program::v("k"), program::c(2.0)});
    p.preBlocks.push_back(std::move(setup));
    p.loop.outputs["sum"] = "s";
    p.loop.itersVar = "iters";
    program::Block tail("tail");
    tail.assign(Opcode::kMul, "scaled", {program::v("sum"),
                                         program::v("scale")});
    tail.store("R", 0, program::v("scaled"));
    p.postBlocks.push_back(std::move(tail));

    const auto diagnostics = program::programEquivalenceDiagnostics(
        p, machine::cydra5(), program::ProgramOptions{},
        {0, 1, 2, 5, 17}, 41);
    for (const auto& d : diagnostics)
        ADD_FAILURE() << "[" << d.code << "] " << d.message;
}

TEST(RegionBuilderTest, WhileLoopCompilesAsFullProgram)
{
    // A WHILE loop (early exit) through the same driver: the compiled
    // loop must fall back to the flat schedule and carry the exit point
    // out through the iteration-count variable. RegionBuilder only
    // handles hammocks, so the body comes from the loop builder.
    ir::LoopBuilder b("find_first_negative");
    b.recurrence("ax");
    b.op(Opcode::kAddrAdd, "ax", {b.reg("ax", 3), b.imm(24)});
    b.load("x", "X", 0, b.reg("ax"));
    b.op(Opcode::kSub, "neg", {b.imm(0), b.reg("x")});
    b.exitIf(b.reg("neg"));
    b.store("Y", 0, b.reg("ax"), b.reg("x"));
    b.closeLoopBackSubstituted();

    program::Program p("frontend.find_negative", b.build());
    p.loop.itersVar = "position";
    program::Block tail("tail");
    tail.store("R", 0, program::v("position"));
    p.postBlocks.push_back(std::move(tail));

    const auto result =
        program::ProgramCompiler(machine::cydra5()).compile(p);
    ASSERT_TRUE(result.ok()) << result.firstError();
    EXPECT_TRUE(result.compiled->loop.isWhile);
    const auto diagnostics = program::programEquivalenceDiagnostics(
        p, machine::cydra5(), program::ProgramOptions{},
        {0, 1, 2, 5, 17}, 43);
    for (const auto& d : diagnostics)
        ADD_FAILURE() << "[" << d.code << "] " << d.message;
}

} // namespace
