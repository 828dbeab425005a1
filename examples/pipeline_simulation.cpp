/**
 * @file
 * End-to-end validation demo: pipeline a loop, then execute BOTH the
 * sequential reference semantics and the cycle-accurate software-pipelined
 * schedule, compare the final memory/register state bit-for-bit, and
 * report the speedup measured in simulated cycles (not just the II
 * model). Demonstrates the paper's premise that a legal modulo schedule
 * preserves all intra- and inter-iteration dependences.
 *
 *   $ ./pipeline_simulation [kernel-name] [trip-count]
 */
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/pipeliner.hpp"
#include "machine/cydra5.hpp"
#include "sim/pipeline_simulator.hpp"
#include "sim/sequential_interpreter.hpp"
#include "support/table.hpp"
#include "workloads/kernels.hpp"

int
main(int argc, char** argv)
{
    using namespace ims;

    const std::string kernel = argc > 1 ? argv[1] : "first_order_rec";
    const int trip = argc > 2 ? std::atoi(argv[2]) : 64;

    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName(kernel);
    core::SoftwarePipeliner pipeliner(machine);
    const auto artifacts = pipeliner.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();
    const auto& schedule = artifacts.outcome.schedule;

    std::cout << w.loop.toString() << "\n";
    std::cout << "II = " << schedule.ii << ", SL = "
              << schedule.scheduleLength << ", stages = "
              << artifacts.code.kernel.stageCount << "\n\n";

    const auto spec = workloads::makeSimSpec(w.loop, trip, 20260706);
    const auto seq = sim::runSequential(w.loop, spec);
    const auto pipe = sim::runPipelined(w.loop, schedule, spec);

    const bool memory_equal = seq.memory == pipe.state.memory;
    const bool regs_equal = sim::equivalent(seq, pipe.state);
    std::cout << "final memory state identical:    "
              << (memory_equal ? "yes" : "NO") << "\n";
    std::cout << "final register values identical: "
              << (regs_equal ? "yes" : "NO") << "\n";
    if (!seq.finalRegisters.empty()) {
        // The first few in-loop registers by name.
        std::vector<std::string> names;
        for (ir::RegId reg = 0; reg < w.loop.numRegisters(); ++reg) {
            if (w.loop.definingOp(reg) >= 0)
                names.push_back(w.loop.reg(reg).name);
        }
        std::sort(names.begin(), names.end());
        names.resize(std::min<std::size_t>(names.size(), 4));
        std::cout << "  e.g.";
        for (const auto& name : names)
            std::cout << "  " << name << " = " << *seq.finalRegister(name);
        std::cout << "\n";
    }

    // Cycle accounting: non-pipelined execution issues one iteration
    // every list-schedule-length cycles; the pipelined loop issues one
    // every II once the pipe is full.
    const long long sequential_cycles =
        static_cast<long long>(trip) *
        artifacts.listSchedule.scheduleLength;
    std::cout << "\nsimulated cycles, " << trip << " iterations:\n";
    std::cout << "  non-pipelined (list schedule): " << sequential_cycles
              << "\n";
    std::cout << "  software pipelined:            " << pipe.cycles
              << "\n";
    std::cout << "  speedup:                       "
              << support::formatDouble(
                     static_cast<double>(sequential_cycles) / pipe.cycles,
                     2)
              << "x\n";

    return memory_equal && regs_equal ? 0 : 1;
}
