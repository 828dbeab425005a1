#include <gtest/gtest.h>

#include <optional>

#include "codegen/kernel_only.hpp"
#include "core/pipeliner.hpp"
#include "graph/graph_builder.hpp"
#include "ir/loop_builder.hpp"
#include "machine/cydra5.hpp"
#include "sim/pipeline_simulator.hpp"
#include "sim/section_executor.hpp"
#include "sim/sequential_interpreter.hpp"
#include "support/error.hpp"
#include "workloads/kernels.hpp"

namespace {

using namespace ims;
using ir::Opcode;

sim::SimSpec
searchSpec(int trip, const std::vector<double>& x)
{
    sim::SimSpec spec;
    spec.tripCount = trip;
    spec.margin = 8;
    spec.arrays["X"] = {0, x};
    std::vector<double> zeros(trip, 0.0);
    spec.arrays["S"] = {0, zeros};
    return spec;
}

TEST(EarlyExitTest, SequentialStopsAtFirstNegative)
{
    const auto w = workloads::kernelByName("search_sum");
    const auto spec = searchSpec(8, {1, 2, 3, -4, 5, 6, 7, 8});
    const auto result = sim::runSequential(w.loop, spec);
    // Exit fires in iteration 3 before the accumulate/store.
    EXPECT_EQ(result.executedIterations, 4);
    for (ir::ArrayId arr = 0; arr < w.loop.numArrays(); ++arr) {
        if (w.loop.arrays()[arr].name != "S")
            continue;
        EXPECT_DOUBLE_EQ(result.memory.read(arr, 0), 1.0);
        EXPECT_DOUBLE_EQ(result.memory.read(arr, 1), 3.0);
        EXPECT_DOUBLE_EQ(result.memory.read(arr, 2), 6.0);
        EXPECT_DOUBLE_EQ(result.memory.read(arr, 3), 0.0); // squashed
        EXPECT_DOUBLE_EQ(result.memory.read(arr, 4), 0.0);
    }
    // Early-exit loops report no final registers (post-exit values are
    // speculative).
    EXPECT_TRUE(result.finalRegisters.empty());
    EXPECT_EQ(result.finalRegister("s"), std::nullopt);
}

TEST(EarlyExitTest, NoExitRunsToTheTripCap)
{
    const auto w = workloads::kernelByName("search_sum");
    const auto spec = searchSpec(5, {1, 1, 1, 1, 1});
    const auto result = sim::runSequential(w.loop, spec);
    EXPECT_EQ(result.executedIterations, 5);
}

TEST(EarlyExitTest, GraphGainsControlEdgesToStores)
{
    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName("search_sum");
    const auto g = graph::buildDepGraph(w.loop, machine);
    int exit_id = -1, store_id = -1;
    for (const auto& op : w.loop.operations()) {
        if (op.opcode == Opcode::kExitIf)
            exit_id = op.id;
        if (op.isStore())
            store_id = op.id;
    }
    ASSERT_GE(exit_id, 0);
    ASSERT_GE(store_id, 0);
    bool dist0 = false;
    for (const auto& edge : g.edges()) {
        dist0 = dist0 ||
                (edge.from == exit_id && edge.to == store_id &&
                 edge.kind == graph::DepKind::kControl &&
                 edge.distance == 0);
    }
    EXPECT_TRUE(dist0);
}

TEST(EarlyExitTest, PipelinedSpeculationSquashesExactly)
{
    const auto machine = machine::cydra5();
    core::SoftwarePipeliner pipeliner(machine);
    const auto w = workloads::kernelByName("search_sum");
    const auto artifacts = pipeliner.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();

    for (const int exit_at : {0, 1, 7, 19}) {
        std::vector<double> x(20, 1.0);
        x[exit_at] = -1.0;
        const auto spec = searchSpec(20, x);
        const auto seq = sim::runSequential(w.loop, spec);
        const auto pipe =
            sim::runPipelined(w.loop, artifacts.outcome.schedule, spec);
        EXPECT_EQ(pipe.state.executedIterations, exit_at + 1);
        EXPECT_TRUE(sim::equivalent(seq, pipe.state))
            << "exit at " << exit_at;
    }
}

TEST(EarlyExitTest, RandomizedContentsStayEquivalent)
{
    const auto machine = machine::cydra5();
    core::SoftwarePipeliner pipeliner(machine);
    const auto w = workloads::kernelByName("search_sum");
    const auto artifacts = pipeliner.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();
    for (int seed = 0; seed < 10; ++seed) {
        const auto spec = workloads::makeSimSpec(w.loop, 30, seed);
        const auto seq = sim::runSequential(w.loop, spec);
        const auto pipe =
            sim::runPipelined(w.loop, artifacts.outcome.schedule, spec);
        EXPECT_TRUE(sim::equivalent(seq, pipe.state)) << seed;
    }
}

TEST(EarlyExitTest, ExitBeforeStoreInTheSchedule)
{
    // The control edge must hold in the actual schedule: the store of
    // iteration i issues strictly after its own iteration's exit.
    const auto machine = machine::cydra5();
    core::SoftwarePipeliner pipeliner(machine);
    const auto w = workloads::kernelByName("search_sum");
    const auto artifacts = pipeliner.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();
    int exit_time = -1, store_time = -1;
    for (const auto& op : w.loop.operations()) {
        if (op.opcode == Opcode::kExitIf)
            exit_time = artifacts.outcome.schedule.times[op.id];
        if (op.isStore())
            store_time = artifacts.outcome.schedule.times[op.id];
    }
    EXPECT_GE(store_time, exit_time + 1);
}

TEST(EarlyExitTest, SectionSchemasRejectEarlyExitLoops)
{
    const auto machine = machine::cydra5();
    core::SoftwarePipeliner pipeliner(machine);
    const auto w = workloads::kernelByName("search_sum");
    const auto artifacts = pipeliner.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();
    const auto spec = workloads::makeSimSpec(w.loop, 30, 2);
    EXPECT_THROW(sim::runGeneratedCode(w.loop, artifacts.code, spec),
                 support::Error);
    const auto ko = codegen::generateKernelOnly(
        w.loop, artifacts.outcome.schedule);
    EXPECT_THROW(sim::runKernelOnly(w.loop, ko, spec), support::Error);
}

TEST(EarlyExitTest, GuardedExitOnlyFiresWhenActive)
{
    // An exit under a false guard must not leave the loop; the unguarded
    // variant exits immediately.
    auto make = [](bool guarded) {
        ir::Loop loop(guarded ? "guarded_exit" : "plain_exit");
        const auto arr = loop.addArray({"X"});
        const auto ax = loop.addRegister({"ax", false, true});
        const auto x = loop.addRegister({"x", false, false});
        const auto p = loop.addRegister({"p", true, false});
        const auto n = loop.addRegister({"n", false, true});

        ir::Operation addr;
        addr.opcode = Opcode::kAddrAdd;
        addr.dest = ax;
        addr.sources = {ir::Operand::makeReg(ax, 3),
                        ir::Operand::makeImm(24)};
        loop.addOperation(addr);

        ir::Operation load;
        load.opcode = Opcode::kLoad;
        load.dest = x;
        load.sources = {ir::Operand::makeReg(ax)};
        load.memRef = ir::MemRef{arr, 0};
        loop.addOperation(load);

        ir::Operation pred;
        pred.opcode = Opcode::kPredSet;
        pred.dest = p;
        pred.sources = {ir::Operand::makeReg(x),
                        ir::Operand::makeImm(100.0)};
        loop.addOperation(pred);

        ir::Operation exit_op;
        exit_op.opcode = Opcode::kExitIf;
        exit_op.sources = {ir::Operand::makeReg(x)};
        if (guarded)
            exit_op.guard = ir::Operand::makeReg(p); // only when x > 100
        loop.addOperation(exit_op);

        ir::Operation dec;
        dec.opcode = Opcode::kAddrSub;
        dec.dest = n;
        dec.sources = {ir::Operand::makeReg(n, 3),
                       ir::Operand::makeImm(3)};
        loop.addOperation(dec);
        ir::Operation branch;
        branch.opcode = Opcode::kBranch;
        branch.sources = {ir::Operand::makeReg(n)};
        loop.addOperation(branch);
        loop.validate();
        return loop;
    };

    sim::SimSpec spec;
    spec.tripCount = 6;
    spec.margin = 8;
    spec.arrays["X"] = {0, {5, 5, 5, 5, 5, 5}};

    const auto plain_result = sim::runSequential(make(false), spec);
    EXPECT_EQ(plain_result.executedIterations, 1);
    const auto guarded_result = sim::runSequential(make(true), spec);
    EXPECT_EQ(guarded_result.executedIterations, 6); // 5 < 100: no exit
}

} // namespace
