#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "graph/graph_builder.hpp"
#include "machine/cydra5.hpp"
#include "machine/machines.hpp"
#include "sched/list_scheduler.hpp"
#include "workloads/kernels.hpp"

namespace {

using namespace ims;

/** Check the acyclic (distance-0) constraints and resource legality. */
void
checkListSchedule(const ir::Loop& loop,
                  const machine::MachineModel& machine,
                  const graph::DepGraph& graph,
                  const sched::ListScheduleResult& result)
{
    for (const auto& edge : graph.edges()) {
        if (edge.distance != 0 || graph.isPseudo(edge.from) ||
            graph.isPseudo(edge.to)) {
            continue;
        }
        EXPECT_GE(result.times[edge.to],
                  result.times[edge.from] + edge.delay)
            << "edge " << edge.from << "->" << edge.to;
    }
    // No (time, resource) cell used twice.
    std::set<std::pair<int, int>> cells;
    for (int op = 0; op < loop.size(); ++op) {
        const auto& table = machine.info(loop.operation(op).opcode)
                                .alternatives[result.alternatives[op]]
                                .table;
        for (const auto& use : table.uses()) {
            EXPECT_TRUE(cells.insert({result.times[op] + use.time,
                                      use.resource})
                            .second)
                << "double booking by op " << op;
        }
    }
}

TEST(ListSchedulerTest, AllKernelsProduceLegalAcyclicSchedules)
{
    const auto machine = machine::cydra5();
    for (const auto& w : workloads::kernelLibrary()) {
        const auto graph = graph::buildDepGraph(w.loop, machine);
        const auto result = sched::listSchedule(w.loop, machine, graph);
        checkListSchedule(w.loop, machine, graph, result);
    }
}

TEST(ListSchedulerTest, KernelLengthsOnCydra5ArePinned)
{
    // First-fit list-schedule lengths of the 39 corpus kernels; they
    // feed minScheduleLength, so any change to FindTimeSlot over the
    // linear reservation table shows here.
    const std::map<std::string, int> expected = {
        {"init_store", 4}, {"vec_copy", 24}, {"vec_scale", 29}, {"daxpy", 33},
        {"dot_raw", 32}, {"dot_bs4", 32}, {"first_order_rec", 28},
        {"tridiag", 33}, {"hydro_frag", 43}, {"state_frag", 45},
        {"iccg_like", 33}, {"banded_inner", 32}, {"stencil3", 37},
        {"mem_recurrence", 33}, {"cond_store", 26}, {"clip_select", 32},
        {"max_reduce", 27}, {"argmax_like", 31}, {"div_kernel", 46},
        {"sqrt_kernel", 50}, {"horner_rec", 27}, {"unrolled_daxpy2", 34},
        {"predicated_mix", 29}, {"wide_tree", 39}, {"long_chain", 64},
        {"multi_array", 25}, {"fat_loop", 51}, {"second_order_rec", 11},
        {"avg_pair", 33}, {"abs_diff_sum", 35}, {"lfk9_predictors", 62},
        {"lfk12_first_diff", 28}, {"lfk20_ordinates", 51}, {"fir8", 48},
        {"complex_mult", 37}, {"lfk10_diff_predictors", 44},
        {"dual_store", 24}, {"raw_counter", 4}, {"search_sum", 29},
    };
    const auto machine = machine::cydra5();
    const auto library = workloads::kernelLibrary();
    ASSERT_EQ(library.size(), expected.size());
    for (const auto& w : library) {
        const auto graph = graph::buildDepGraph(w.loop, machine);
        const auto result = sched::listSchedule(w.loop, machine, graph);
        ASSERT_EQ(expected.count(w.loop.name()), 1u) << w.loop.name();
        EXPECT_EQ(result.scheduleLength, expected.at(w.loop.name()))
            << w.loop.name();
    }
}

TEST(ListSchedulerTest, LengthAtLeastCriticalPath)
{
    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName("long_chain");
    const auto graph = graph::buildDepGraph(w.loop, machine);
    const auto result = sched::listSchedule(w.loop, machine, graph);
    // long_chain: load(20) + 10 chained adds (4 each) + store(1) = 65? The
    // chain starts after the address add (3).
    EXPECT_GE(result.scheduleLength, 3 + 20 + 10 * 4 + 1);
}

TEST(ListSchedulerTest, StopTimeCoversEveryCompletion)
{
    const auto machine = machine::cydra5();
    for (const char* name : {"daxpy", "fat_loop", "wide_tree"}) {
        const auto w = workloads::kernelByName(name);
        const auto graph = graph::buildDepGraph(w.loop, machine);
        const auto result = sched::listSchedule(w.loop, machine, graph);
        for (int op = 0; op < w.loop.size(); ++op) {
            EXPECT_GE(result.scheduleLength,
                      result.times[op] +
                          machine.latency(w.loop.operation(op).opcode))
                << name;
        }
    }
}

TEST(ListSchedulerTest, WiderMachineNeverLengthensSchedule)
{
    // wideVliw has strictly more resources and lower latencies than the
    // clean64 machine, so the list schedule cannot get longer.
    const auto narrow = machine::clean64();
    const auto wide = machine::wideVliw();
    for (const char* name : {"daxpy", "fat_loop", "hydro_frag"}) {
        const auto w = workloads::kernelByName(name);
        const auto g_narrow = graph::buildDepGraph(w.loop, narrow);
        const auto g_wide = graph::buildDepGraph(w.loop, wide);
        EXPECT_LE(
            sched::listSchedule(w.loop, wide, g_wide).scheduleLength,
            sched::listSchedule(w.loop, narrow, g_narrow).scheduleLength)
            << name;
    }
}

TEST(ListSchedulerTest, IndependentOpsPackUpToResourceLimit)
{
    // multi_array on the wide machine: 4 loads can issue in one cycle on
    // the 4 ports.
    const auto machine = machine::wideVliw();
    const auto w = workloads::kernelByName("multi_array");
    const auto graph = graph::buildDepGraph(w.loop, machine);
    const auto result = sched::listSchedule(w.loop, machine, graph);
    std::map<int, int> loads_at;
    for (int op = 0; op < w.loop.size(); ++op) {
        if (w.loop.operation(op).isLoad())
            ++loads_at[result.times[op]];
    }
    int peak = 0;
    for (const auto& [t, n] : loads_at)
        peak = std::max(peak, n);
    EXPECT_GE(peak, 2); // must exploit some parallelism
}

} // namespace
