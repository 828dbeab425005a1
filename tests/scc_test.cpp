#include <gtest/gtest.h>

#include <set>

#include "graph/graph_builder.hpp"
#include "graph/scc.hpp"
#include "machine/cydra5.hpp"
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

TEST(SccTest, ChainHasOnlyTrivialComponents)
{
    const DepGraph g(3, {edge(0, 1), edge(1, 2)});
    const auto sccs = graph::findSccs(g);
    EXPECT_EQ(sccs.numComponents(), 5); // 3 ops + START + STOP
    EXPECT_EQ(sccs.numNonTrivial(), 0);
}

TEST(SccTest, CycleFormsOneComponent)
{
    const DepGraph g(4, {edge(0, 1),
                         edge(1, 2),
                         edge(2, 0, 1, 1), // back edge
                         edge(2, 3)});
    const auto sccs = graph::findSccs(g);
    EXPECT_EQ(sccs.numNonTrivial(), 1);
    const int c = sccs.componentOf(0);
    EXPECT_EQ(sccs.componentOf(1), c);
    EXPECT_EQ(sccs.componentOf(2), c);
    EXPECT_NE(sccs.componentOf(3), c);
    EXPECT_TRUE(sccs.isNonTrivial(c));
}

TEST(SccTest, SelfLoopIsStillTrivialPerThePaper)
{
    // §4.2: "a non-trivial SCC is one containing more than one operation";
    // an op with only a reflexive edge stays trivial.
    const DepGraph g(2, {edge(0, 0, 3, 1), edge(0, 1)});
    const auto sccs = graph::findSccs(g);
    EXPECT_EQ(sccs.numNonTrivial(), 0);
}

TEST(SccTest, ComponentsEmittedInReverseTopologicalOrder)
{
    // For every edge u -> v across components, v's component must be
    // emitted (indexed) before u's.
    const auto machine = machine::cydra5();
    for (const auto& w : workloads::kernelLibrary()) {
        const auto g = graph::buildDepGraph(w.loop, machine);
        const auto sccs = graph::findSccs(g);
        for (const auto& e : g.edges()) {
            if (sccs.componentOf(e.from) != sccs.componentOf(e.to)) {
                EXPECT_LT(sccs.componentOf(e.to), sccs.componentOf(e.from))
                    << w.loop.name();
            }
        }
    }
}

TEST(SccTest, EveryVertexAssignedExactlyOnce)
{
    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName("argmax_like");
    const auto g = graph::buildDepGraph(w.loop, machine);
    const auto sccs = graph::findSccs(g);
    std::set<int> seen;
    for (const auto& component : sccs.components()) {
        for (int v : component) {
            EXPECT_TRUE(seen.insert(v).second) << "vertex " << v;
        }
    }
    EXPECT_EQ(static_cast<int>(seen.size()), g.numVertices());
}

TEST(SccTest, TwoOpRecurrenceDetected)
{
    // first_order_rec: mul and add form a 2-op SCC.
    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName("first_order_rec");
    const auto g = graph::buildDepGraph(w.loop, machine);
    const auto sccs = graph::findSccs(g);
    EXPECT_EQ(sccs.numNonTrivial(), 1);
    auto sizes = sccs.componentSizes();
    EXPECT_EQ(sizes.front(), 2);
}

TEST(SccTest, VectorizableKernelsHaveNoNonTrivialSccs)
{
    const auto machine = machine::cydra5();
    for (const char* name :
         {"init_store", "vec_copy", "daxpy", "hydro_frag", "stencil3"}) {
        const auto w = workloads::kernelByName(name);
        const auto g = graph::buildDepGraph(w.loop, machine);
        EXPECT_EQ(graph::findSccs(g).numNonTrivial(), 0) << name;
    }
}

} // namespace
