/**
 * @file
 * Round-trip property tests for the mini-IR printer and the machine
 * description I/O: parse(print(x)) must be semantically identical to x
 * for every corpus kernel, for freshly generated loops, and for both
 * hand-written and random machine models. Fuzz reproducer emission and
 * replay depend on these properties.
 */
#include <gtest/gtest.h>

#include <limits>

#include "fuzz/machine_gen.hpp"
#include "ir/loop_builder.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "machine/cydra5.hpp"
#include "machine/machine_io.hpp"
#include "machine/machines.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "workloads/kernels.hpp"
#include "workloads/random_loops.hpp"

namespace ims {
namespace {

void
expectRoundTrip(const ir::Loop& loop)
{
    const std::string text = ir::printLoop(loop);
    ir::Loop reparsed = ir::parseLoop(text);
    EXPECT_TRUE(ir::equivalentLoops(loop, reparsed))
        << loop.name() << " does not round-trip:\n"
        << text;
    // The printed form is canonical: printing the reparsed loop
    // reproduces the text byte for byte.
    EXPECT_EQ(text, ir::printLoop(reparsed)) << loop.name();
}

TEST(PrinterRoundTrip, EveryCorpusKernel)
{
    for (const auto& workload : workloads::kernelLibrary())
        expectRoundTrip(workload.loop);
}

TEST(PrinterRoundTrip, GeneratedLoops)
{
    support::Rng rng(0x52415531994ULL);
    const workloads::GeneratorProfile corpus_profile;
    const workloads::GeneratorProfile fuzz_profile =
        workloads::fuzzProfile();
    for (int i = 0; i < 200; ++i) {
        const auto& profile = i % 2 == 0 ? corpus_profile : fuzz_profile;
        expectRoundTrip(workloads::generateLoop(
            rng, "gen_" + std::to_string(i), profile));
    }
}

TEST(PrinterRoundTrip, EquivalentLoopsDetectsDifferences)
{
    const auto make = [](double immediate) {
        ir::LoopBuilder builder("pair");
        builder.op(ir::Opcode::kAdd, "x",
                   {builder.imm(immediate), builder.imm(2.0)});
        builder.closeLoop();
        return builder.build();
    };
    const ir::Loop a = make(1.0);
    EXPECT_TRUE(ir::equivalentLoops(a, make(1.0)));
    EXPECT_FALSE(ir::equivalentLoops(a, make(1.5)));
}

TEST(PrinterRoundTrip, ImmediatePrecision)
{
    ir::LoopBuilder builder("immediates");
    builder.op(ir::Opcode::kAdd, "x",
               {builder.imm(0.1), builder.imm(1.0 / 3.0)});
    builder.op(ir::Opcode::kMul, "y",
               {builder.reg("x"), builder.imm(1e-30)});
    builder.closeLoop();
    expectRoundTrip(builder.build());
}

TEST(PrinterRoundTrip, ImmediateEdgeCases)
{
    // The service cache keys on printed bytes, so the printer must be
    // byte-stable even for the IEEE-754 corner cases: negative zero
    // keeps its sign, non-finite values print as parseable keywords,
    // and denormals/extremes survive the round trip exactly.
    ir::LoopBuilder builder("edge_immediates");
    builder.op(ir::Opcode::kAdd, "a",
               {builder.imm(-0.0), builder.imm(0.0)});
    builder.op(ir::Opcode::kAdd, "b",
               {builder.imm(std::numeric_limits<double>::quiet_NaN()),
                builder.imm(std::numeric_limits<double>::infinity())});
    builder.op(ir::Opcode::kAdd, "c",
               {builder.imm(-std::numeric_limits<double>::infinity()),
                builder.imm(std::numeric_limits<double>::denorm_min())});
    builder.op(ir::Opcode::kMul, "d",
               {builder.imm(std::numeric_limits<double>::max()),
                builder.imm(-4.9406564584124654e-316)});
    builder.closeLoop();
    const ir::Loop loop = builder.build();

    const std::string text = ir::printLoop(loop);
    const ir::Loop reparsed = ir::parseLoop(text);
    EXPECT_EQ(text, ir::printLoop(reparsed));

    // -0.0 must not collapse to 0.0 (memcmp-distinct => key-distinct).
    EXPECT_NE(text.find("#-0"), std::string::npos) << text;
    // Non-finite immediates use the parser's keywords, never printf's
    // locale-dependent spellings.
    EXPECT_NE(text.find("#nan"), std::string::npos) << text;
    EXPECT_NE(text.find("#inf"), std::string::npos) << text;
    EXPECT_NE(text.find("#-inf"), std::string::npos) << text;
}

void
expectMachineRoundTrip(const machine::MachineModel& machine)
{
    const std::string text = machine::printMachine(machine);
    const machine::MachineModel reparsed = machine::parseMachine(text);
    EXPECT_EQ(text, machine::printMachine(reparsed)) << machine.name();
    EXPECT_EQ(machine.toString(), reparsed.toString()) << machine.name();
}

TEST(MachineIoRoundTrip, BuiltinMachines)
{
    expectMachineRoundTrip(machine::cydra5());
    expectMachineRoundTrip(machine::clean64());
    expectMachineRoundTrip(machine::wideVliw());
    expectMachineRoundTrip(machine::scalarToy());
}

TEST(MachineIoRoundTrip, GeneratedMachines)
{
    support::Rng rng(7);
    for (int i = 0; i < 50; ++i) {
        expectMachineRoundTrip(
            fuzz::generateMachine(rng, "gm_" + std::to_string(i)));
    }
}

TEST(MachineIo, RejectsMalformedInput)
{
    EXPECT_THROW(machine::parseMachine("resource r0\n"), support::Error);
    EXPECT_THROW(machine::parseMachine("machine m\nopcode bogus 1\n"),
                 support::Error);
    EXPECT_THROW(
        machine::parseMachine("machine m\nresource r0\nresource r0\n"),
        support::Error);
    EXPECT_THROW(machine::parseMachine(
                     "machine m\nresource r0\nopcode add 1\nalt a 0:rX\n"),
                 support::Error);
}

TEST(MachineIo, RejectsTrailingGarbageInNumbers)
{
    const std::string head = "machine m\nresource r0\n";
    EXPECT_NO_THROW(
        machine::parseMachine(head + "opcode add 5\nalt a 0:r0\n"));
    for (const char* bad : {"opcode add 5x\nalt a 0:r0\n",
                            "opcode add 5.0\nalt a 0:r0\n",
                            "opcode add +5\nalt a 0:r0\n",
                            "opcode add 5\nalt a 0x:r0\n",
                            "opcode add 5\nalt a 1e0:r0\n"}) {
        EXPECT_THROW(machine::parseMachine(head + bad), support::Error)
            << bad;
    }
}

} // namespace
} // namespace ims
