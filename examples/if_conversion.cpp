/**
 * @file
 * IF-conversion demo: write a loop with source-style structured control
 * flow, let the RegionBuilder IF-convert it into the single predicated
 * basic block of §1 ("all branches except for the loop-closing branch
 * disappear"), then pipeline and validate it. The source program:
 *
 *   for (i = 0; i < n; i++) {
 *       x = a[i];
 *       if (x > threshold) {
 *           big += x;                 // accumulate the large values
 *           out[i] = hi;              // and clip the output
 *       } else if (x > 0) {
 *           out[i] = x;               // pass small positives through
 *       } else {
 *           out[i] = 0;               // flush negatives
 *       }
 *   }
 *
 *   $ ./if_conversion
 */
#include <iostream>

#include "core/pipeliner.hpp"
#include "core/report.hpp"
#include "frontend/region_builder.hpp"
#include "machine/cydra5.hpp"
#include "sim/pipeline_simulator.hpp"
#include "sim/sequential_interpreter.hpp"

int
main()
{
    using namespace ims;
    using ir::Opcode;

    frontend::RegionBuilder r("clip_and_sum");
    r.liveIn("threshold").liveIn("hi");
    r.recurrence("big");
    r.recurrence("ax");
    r.assign(Opcode::kAddrAdd, "ax", {r.use("ax", 3), r.imm(24)});
    r.load("x", "A", 0, r.use("ax"));
    r.assign(Opcode::kSub, "over", {r.use("x"), r.use("threshold")});
    r.beginIf(r.use("over"));
    {
        r.assign(Opcode::kAdd, "big", {r.use("big"), r.use("x")});
        r.store("OUT", 0, r.use("ax"), r.use("hi"));
    }
    r.elseBranch();
    {
        r.beginIf(r.use("x"));
        r.store("OUT", 0, r.use("ax"), r.use("x"));
        r.elseBranch();
        r.store("OUT", 0, r.use("ax"), r.imm(0.0));
        r.endIf();
    }
    r.endIf();
    const ir::Loop loop = r.finish();

    std::cout << "IF-converted body (control flow is now predicates and "
                 "selects):\n\n"
              << loop.toString() << "\n";

    const auto machine = machine::cydra5();
    core::SoftwarePipeliner pipeliner(machine);
    const auto artifacts = pipeliner.pipeline(core::PipelineRequest(loop)).artifactsOrThrow();
    std::cout << core::report(loop, machine, artifacts) << "\n";

    // Validate end to end on a concrete input.
    sim::SimSpec spec;
    spec.tripCount = 8;
    spec.margin = 8;
    spec.liveIn["threshold"] = 10.0;
    spec.liveIn["hi"] = 10.0;
    spec.arrays["A"] = {0, {3.0, 20.0, -5.0, 11.0, 0.0, 7.0, 30.0, -1.0}};
    const auto seq = sim::runSequential(loop, spec);
    const auto pipe =
        sim::runPipelined(loop, artifacts.outcome.schedule, spec);
    std::cout << "pipelined execution matches sequential: "
              << (sim::equivalent(seq, pipe.state) ? "yes" : "NO") << "\n";
    std::cout << "sum of values above threshold: "
              << seq.finalRegister("big").value() << " (expected 61)\n";
    for (ir::ArrayId arr = 0; arr < loop.numArrays(); ++arr) {
        if (loop.arrays()[arr].name != "OUT")
            continue;
        std::cout << "out[] =";
        for (int i = 0; i < 8; ++i)
            std::cout << " " << seq.memory.read(arr, i);
        std::cout << "  (expected 3 10 0 10 0 7 10 0)\n";
    }
    return 0;
}
