#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "graph/circuits.hpp"
#include "graph/graph_builder.hpp"
#include "graph/scc.hpp"
#include "machine/cydra5.hpp"
#include "mii/rec_mii.hpp"
#include "support/error.hpp"
#include "workloads/kernels.hpp"

namespace {

using namespace ims;
using graph::DepEdge;
using graph::DepGraph;
using graph::DepKind;

DepEdge
edge(int from, int to, int delay = 1, int distance = 0)
{
    DepEdge e;
    e.from = from;
    e.to = to;
    e.kind = DepKind::kFlow;
    e.delay = delay;
    e.distance = distance;
    return e;
}

/** Every ordered pair of distinct ops joined by a delay-1 distance-1 edge. */
DepGraph
completeGraph(int num_ops)
{
    std::vector<DepEdge> edges;
    for (int i = 0; i < num_ops; ++i) {
        for (int j = 0; j < num_ops; ++j) {
            if (i != j)
                edges.push_back(edge(i, j, 1, 1));
        }
    }
    return DepGraph(num_ops, std::move(edges));
}

TEST(CircuitsTest, AcyclicGraphHasNoCircuits)
{
    const DepGraph g(3, {edge(0, 1), edge(1, 2)});
    EXPECT_TRUE(graph::enumerateElementaryCircuits(g).empty());
}

TEST(CircuitsTest, SelfLoopIsALengthOneCircuit)
{
    const DepGraph g(1, {edge(0, 0, 3, 1)});
    const auto circuits = graph::enumerateElementaryCircuits(g);
    ASSERT_EQ(circuits.size(), 1u);
    EXPECT_EQ(circuits[0].size(), 1u);
    EXPECT_EQ(graph::circuitDelay(g, circuits[0]), 3);
    EXPECT_EQ(graph::circuitDistance(g, circuits[0]), 1);
}

TEST(CircuitsTest, TwoVertexCycleFound)
{
    const DepGraph g(2, {edge(0, 1, 5, 0), edge(1, 0, 4, 1)});
    const auto circuits = graph::enumerateElementaryCircuits(g);
    ASSERT_EQ(circuits.size(), 1u);
    EXPECT_EQ(graph::circuitDelay(g, circuits[0]), 9);
    EXPECT_EQ(graph::circuitDistance(g, circuits[0]), 1);
}

TEST(CircuitsTest, ParallelEdgesYieldDistinctCircuits)
{
    const DepGraph g(2, {edge(0, 1, 1, 0),
                         edge(1, 0, 1, 1),
                         edge(1, 0, 7, 2)}); // parallel back edge
    const auto circuits = graph::enumerateElementaryCircuits(g);
    EXPECT_EQ(circuits.size(), 2u);
}

TEST(CircuitsTest, CompleteGraphCircuitCount)
{
    // K4 (all ordered pairs) has 20 elementary circuits
    // (12 of length 2? no: C(4,2)=6 of length 2, 8 of length 3, 6 of
    // length 4 => 20).
    const DepGraph g = completeGraph(4);
    const auto circuits = graph::enumerateElementaryCircuits(g);
    EXPECT_EQ(circuits.size(), 20u);
}

TEST(CircuitsTest, BudgetExceededThrows)
{
    const DepGraph g = completeGraph(4);
    EXPECT_THROW(graph::enumerateElementaryCircuits(g, 5),
                 support::Error);
}

TEST(CircuitsTest, PseudoVerticesNeverOnCircuits)
{
    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName("first_order_rec");
    const auto g = graph::buildDepGraph(w.loop, machine);
    for (const auto& circuit : graph::enumerateElementaryCircuits(g)) {
        for (auto eid : circuit) {
            EXPECT_FALSE(g.isPseudo(g.edge(eid).from));
            EXPECT_FALSE(g.isPseudo(g.edge(eid).to));
        }
    }
}

TEST(CircuitsTest, RecMiiFromCircuitsMatchesMinDistOnAllKernels)
{
    // The paper's two RecMII approaches (circuit enumeration as in the
    // Cydra 5 compiler, and the MinDist search) must agree.
    const auto machine = machine::cydra5();
    for (const auto& w : workloads::kernelLibrary()) {
        const auto g = graph::buildDepGraph(w.loop, machine);
        const auto sccs = graph::findSccs(g);
        const int by_circuits = mii::computeRecMiiFromCircuits(g);
        const int by_mindist = mii::computeRecMiiPerScc(g, sccs, 1);
        const int whole_graph = mii::computeRecMiiWholeGraph(g, 1);
        EXPECT_EQ(by_circuits, by_mindist) << w.loop.name();
        EXPECT_EQ(by_mindist, whole_graph) << w.loop.name();
    }
}

} // namespace
