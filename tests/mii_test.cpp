#include <gtest/gtest.h>

#include "graph/graph_builder.hpp"
#include "graph/scc.hpp"
#include "machine/cydra5.hpp"
#include "machine/machines.hpp"
#include "mii/mii.hpp"
#include "mii/min_dist.hpp"
#include "mii/rec_mii.hpp"
#include "mii/res_mii.hpp"
#include "support/error.hpp"
#include "workloads/kernels.hpp"

namespace {

using namespace ims;
using graph::DepEdge;
using graph::DepGraph;
using graph::DepKind;

DepEdge
edge(int from, int to, int delay, int distance)
{
    DepEdge e;
    e.from = from;
    e.to = to;
    e.kind = DepKind::kFlow;
    e.delay = delay;
    e.distance = distance;
    return e;
}

struct KernelMii
{
    const char* name;
    int resMii;
    int mii;
};

class ResMiiTest : public ::testing::Test
{
  protected:
    machine::MachineModel machine_ = machine::cydra5();
};

TEST_F(ResMiiTest, DaxpyIsMemoryPortBound)
{
    // daxpy: 2 loads + 1 store over 2 memory ports -> ResMII 2.
    const auto w = workloads::kernelByName("daxpy");
    const auto result = mii::computeResMii(w.loop, machine_);
    EXPECT_EQ(result.resMii, 2);
    const std::string critical =
        machine_.resourceName(result.criticalResource);
    EXPECT_TRUE(critical == "mem-port-0" || critical == "mem-port-1")
        << critical;
}

TEST_F(ResMiiTest, DivKernelBoundByBlockedMultiplierStage)
{
    const auto w = workloads::kernelByName("div_kernel");
    const auto result = mii::computeResMii(w.loop, machine_);
    EXPECT_EQ(result.resMii, 18);
    EXPECT_EQ(machine_.resourceName(result.criticalResource),
              "mult-stage-1");
}

TEST_F(ResMiiTest, InitStoreNeedsOnlyOneCycle)
{
    const auto w = workloads::kernelByName("init_store");
    EXPECT_EQ(mii::computeResMii(w.loop, machine_).resMii, 1);
}

TEST_F(ResMiiTest, GreedySpreadsAcrossAlternatives)
{
    // multi_array: 4 loads + 4 stores over 2 ports -> 4 per port.
    const auto w = workloads::kernelByName("multi_array");
    const auto result = mii::computeResMii(w.loop, machine_);
    EXPECT_EQ(result.resMii, 4);
    // Usage must be balanced across the two ports.
    int port0 = 0, port1 = 0;
    for (int r = 0; r < machine_.numResources(); ++r) {
        if (machine_.resourceName(r) == "mem-port-0")
            port0 = result.usage[r];
        if (machine_.resourceName(r) == "mem-port-1")
            port1 = result.usage[r];
    }
    EXPECT_EQ(port0, 4);
    EXPECT_EQ(port1, 4);
}

TEST_F(ResMiiTest, SortsByAlternativeCount)
{
    // Chosen alternatives are recorded for every op.
    const auto w = workloads::kernelByName("daxpy");
    const auto result = mii::computeResMii(w.loop, machine_);
    EXPECT_EQ(static_cast<int>(result.chosenAlternative.size()),
              w.loop.size());
    for (int op = 0; op < w.loop.size(); ++op) {
        const int alts =
            machine_.numAlternatives(w.loop.operation(op).opcode);
        EXPECT_GE(result.chosenAlternative[op], 0);
        EXPECT_LT(result.chosenAlternative[op], alts);
    }
}

TEST(MinDistTest, InitializationUsesDelayMinusIiTimesDistance)
{
    const DepGraph g(2, {edge(0, 1, 7, 2)});
    const mii::MinDistMatrix m(g, std::vector<graph::VertexId>{0, 1}, 3);
    EXPECT_EQ(m.atVertex(0, 1), 7 - 3 * 2);
    EXPECT_EQ(m.atVertex(1, 0), mii::MinDistMatrix::kMinusInf);
}

TEST(MinDistTest, ClosureComposesPaths)
{
    const DepGraph g(3, {edge(0, 1, 4, 0), edge(1, 2, 5, 0)});
    const mii::MinDistMatrix m(g, {0, 1, 2}, 1);
    EXPECT_EQ(m.atVertex(0, 2), 9);
}

TEST(MinDistTest, ParallelEdgesTakeMax)
{
    const DepGraph g(2, {edge(0, 1, 2, 0), edge(0, 1, 9, 1)});
    const mii::MinDistMatrix m(g, {0, 1}, 4);
    EXPECT_EQ(m.atVertex(0, 1), 5); // max(2, 9-4)
}

TEST(MinDistTest, DiagonalDetectsInfeasibleIi)
{
    // Circuit delay 9, distance 1: feasible iff II >= 9.
    const DepGraph g(2, {edge(0, 1, 5, 0), edge(1, 0, 4, 1)});
    for (int ii = 1; ii <= 12; ++ii) {
        const mii::MinDistMatrix m(g, {0, 1}, ii);
        EXPECT_EQ(m.feasible(), ii >= 9) << "II " << ii;
        if (ii == 9) {
            EXPECT_EQ(m.maxDiagonal(), 0); // tight at the RecMII
        }
    }
}

TEST(MinDistTest, CountersCountInvocationsAndInnerSteps)
{
    // A two-edge path 0 -> 1 -> 2 has exactly one productive closure step
    // (combining the finite halves via k = 1). The counter counts only
    // productive (i, k, j) combinations — iterations skipped because a
    // path half is -infinity are no-ops and are not billed (Table 4
    // counts work, not loop trips; see docs/api.md).
    const DepGraph g(3, {edge(0, 1, 1, 0), edge(1, 2, 1, 0)});
    support::Counters counters;
    const mii::MinDistMatrix m(g, {0, 1, 2}, 1, &counters);
    EXPECT_EQ(counters.minDistInvocations, 1u);
    EXPECT_EQ(counters.minDistInnerSteps, 1u);
    EXPECT_EQ(m.atVertex(0, 2), 2);
}

TEST(MinDistTest, RecomputeMatchesFreshConstruction)
{
    // Reusing one matrix across candidate IIs must agree entry-for-entry
    // with building a fresh matrix per II (the RecMII search relies on
    // this).
    const DepGraph g(3, {edge(0, 1, 3, 0),
                         edge(1, 2, 4, 0),
                         edge(2, 0, 5, 2)});
    mii::MinDistMatrix reused(g, {0, 1, 2}, 1);
    for (int ii = 1; ii <= 8; ++ii) {
        reused.recompute(ii);
        const mii::MinDistMatrix fresh(g, {0, 1, 2}, ii);
        ASSERT_EQ(reused.ii(), fresh.ii());
        for (int i = 0; i < 3; ++i) {
            for (int j = 0; j < 3; ++j)
                EXPECT_EQ(reused.at(i, j), fresh.at(i, j))
                    << "ii " << ii << " at (" << i << "," << j << ")";
        }
        EXPECT_EQ(reused.feasible(), fresh.feasible()) << "ii " << ii;
    }
}

TEST(RecMiiTest, SelfLoopBound)
{
    const DepGraph g(1, {edge(0, 0, 3, 1)});
    const auto sccs = graph::findSccs(g);
    EXPECT_EQ(mii::computeRecMiiPerScc(g, sccs, 1), 3);
    // Back-substituted: distance 3 -> ceil(3/3) = 1.
    const DepGraph g2(1, {edge(0, 0, 3, 3)});
    const auto sccs2 = graph::findSccs(g2);
    EXPECT_EQ(mii::computeRecMiiPerScc(g2, sccs2, 1), 1);
}

TEST(RecMiiTest, StartCandidateIsAFloor)
{
    const DepGraph g(1, {edge(0, 0, 3, 1)});
    const auto sccs = graph::findSccs(g);
    // Production protocol never looks below the ResMII floor.
    EXPECT_EQ(mii::computeRecMiiPerScc(g, sccs, 7), 7);
}

TEST(RecMiiTest, ZeroDistanceCycleRejected)
{
    const DepGraph g(2, {edge(0, 1, 1, 0), edge(1, 0, 1, 0)});
    const auto sccs = graph::findSccs(g);
    EXPECT_THROW(mii::computeRecMiiPerScc(g, sccs, 1), support::Error);
    EXPECT_THROW(mii::computeRecMiiFromCircuits(g), support::Error);
}

TEST(RecMiiTest, FractionalBoundRoundsUp)
{
    // Delay 7 over distance 2: RecMII = ceil(7/2) = 4.
    const DepGraph g(2, {edge(0, 1, 3, 0), edge(1, 0, 4, 2)});
    const auto sccs = graph::findSccs(g);
    EXPECT_EQ(mii::computeRecMiiPerScc(g, sccs, 1), 4);
    EXPECT_EQ(mii::computeRecMiiFromCircuits(g), 4);
}

TEST(MiiTest, KnownKernelValues)
{
    const auto machine = machine::cydra5();
    const KernelMii expected[] = {
        {"init_store", 1, 1},    {"vec_copy", 1, 1},
        {"daxpy", 2, 2},         {"dot_raw", 2, 4},
        {"first_order_rec", 2, 9}, {"tridiag", 2, 9},
        {"div_kernel", 18, 18},  {"mem_recurrence", 2, 30},
        {"raw_counter", 1, 3},
    };
    for (const auto& k : expected) {
        const auto w = workloads::kernelByName(k.name);
        const auto g = graph::buildDepGraph(w.loop, machine);
        const auto sccs = graph::findSccs(g);
        const auto result = mii::computeMii(w.loop, machine, g, sccs);
        EXPECT_EQ(result.resMii, k.resMii) << k.name;
        EXPECT_EQ(result.mii, k.mii) << k.name;
    }
}

TEST(MiiTest, TrueRecMiiNeverExceedsProductionMii)
{
    const auto machine = machine::cydra5();
    for (const auto& w : workloads::kernelLibrary()) {
        const auto g = graph::buildDepGraph(w.loop, machine);
        const auto sccs = graph::findSccs(g);
        const auto result = mii::computeMii(w.loop, machine, g, sccs);
        const int true_rec = mii::computeTrueRecMii(g, sccs);
        EXPECT_EQ(result.mii, std::max(result.resMii, true_rec))
            << w.loop.name();
    }
}

TEST(MiiTest, MiiIsOneForEmptyRecurrenceGraphs)
{
    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName("init_store");
    const auto g = graph::buildDepGraph(w.loop, machine);
    const auto sccs = graph::findSccs(g);
    EXPECT_EQ(mii::computeTrueRecMii(g, sccs), 1);
}

} // namespace
