#include <gtest/gtest.h>

#include "ir/loop.hpp"
#include "ir/loop_builder.hpp"
#include "ir/opcode.hpp"
#include "support/error.hpp"

namespace {

using namespace ims;
using ir::Opcode;

TEST(OpcodeTest, NamesRoundTrip)
{
    for (int k = 0; k < ir::kNumRealOpcodes; ++k) {
        const auto opcode = static_cast<Opcode>(k);
        const auto parsed = ir::opcodeFromName(ir::opcodeName(opcode));
        ASSERT_TRUE(parsed.has_value()) << ir::opcodeName(opcode);
        EXPECT_EQ(*parsed, opcode);
    }
}

TEST(OpcodeTest, UnknownNameReturnsNullopt)
{
    EXPECT_FALSE(ir::opcodeFromName("frobnicate").has_value());
}

TEST(OpcodeTest, Classification)
{
    EXPECT_TRUE(ir::isPseudo(Opcode::kStart));
    EXPECT_TRUE(ir::isPseudo(Opcode::kStop));
    EXPECT_FALSE(ir::isPseudo(Opcode::kAdd));
    EXPECT_TRUE(ir::accessesMemory(Opcode::kLoad));
    EXPECT_TRUE(ir::accessesMemory(Opcode::kStore));
    EXPECT_FALSE(ir::accessesMemory(Opcode::kMul));
    EXPECT_TRUE(ir::definesRegister(Opcode::kLoad));
    EXPECT_FALSE(ir::definesRegister(Opcode::kStore));
    EXPECT_FALSE(ir::definesRegister(Opcode::kBranch));
    EXPECT_TRUE(ir::definesPredicate(Opcode::kPredSet));
    EXPECT_FALSE(ir::definesPredicate(Opcode::kCmpGt));
}

TEST(OpcodeTest, SourceCounts)
{
    EXPECT_EQ(ir::sourceCount(Opcode::kLoad), 1);
    EXPECT_EQ(ir::sourceCount(Opcode::kStore), 2);
    EXPECT_EQ(ir::sourceCount(Opcode::kSelect), 3);
    EXPECT_EQ(ir::sourceCount(Opcode::kAbs), 1);
    EXPECT_EQ(ir::sourceCount(Opcode::kPredClear), 0);
    EXPECT_EQ(ir::sourceCount(Opcode::kBranch), 1);
}

TEST(LoopBuilderTest, BuildsValidDaxpyShapedLoop)
{
    ir::LoopBuilder b("t");
    b.liveIn("a");
    b.recurrence("ax");
    b.op(Opcode::kAddrAdd, "ax", {b.reg("ax", 3), b.imm(24)});
    b.load("x", "X", 0, b.reg("ax"));
    b.op(Opcode::kMul, "t", {b.reg("a"), b.reg("x")});
    b.store("Y", 0, b.reg("ax"), b.reg("t"));
    b.closeLoopBackSubstituted();
    const ir::Loop loop = b.build();

    EXPECT_EQ(loop.size(), 6);
    EXPECT_EQ(loop.numArrays(), 2);
    EXPECT_EQ(loop.maxDistance(), 3);
    // Defs resolve.
    for (const auto& op : loop.operations()) {
        if (op.hasDest()) {
            EXPECT_EQ(loop.definingOp(op.dest), op.id);
        }
    }
}

TEST(LoopBuilderTest, ReadOfUndeclaredRegisterThrows)
{
    ir::LoopBuilder b("t");
    EXPECT_THROW(b.reg("nope"), support::Error);
}

TEST(LoopBuilderTest, DoubleDefinitionThrows)
{
    ir::LoopBuilder b("t");
    b.liveIn("a");
    b.op(Opcode::kCopy, "x", {b.reg("a")});
    EXPECT_THROW(b.op(Opcode::kCopy, "x", {b.reg("a")}),
                 support::Error);
}

TEST(LoopValidateTest, OperandArityMismatch)
{
    ir::Loop loop("t");
    const ir::RegId a = loop.addRegister({"a", false, true});
    const ir::RegId d = loop.addRegister({"d", false, false});
    ir::Operation op;
    op.opcode = Opcode::kAdd;
    op.dest = d;
    op.sources = {ir::Operand::makeReg(a)}; // needs two
    loop.addOperation(op);
    EXPECT_THROW(loop.validate(), support::Error);
}

/** The message `loop.validate()` throws, or "" if it passes. */
std::string
validateMessage(const ir::Loop& loop)
{
    try {
        loop.validate();
    } catch (const support::Error& e) {
        return e.what();
    }
    return "";
}

TEST(LoopValidateTest, RejectionsCarryExactMessages)
{
    ir::Loop arity("t");
    const ir::RegId a = arity.addRegister({"a", false, true});
    const ir::RegId d = arity.addRegister({"d", false, false});
    ir::Operation add;
    add.opcode = Opcode::kAdd;
    add.dest = d;
    add.sources = {ir::Operand::makeReg(a)};
    arity.addOperation(add);
    EXPECT_EQ(validateMessage(arity),
              "operation 0 (add) has 1 operands, expected 2");

    ir::Loop undeclared("t");
    const ir::RegId b = undeclared.addRegister({"b", false, true});
    const ir::RegId e = undeclared.addRegister({"e", false, false});
    add.dest = e;
    add.sources = {ir::Operand::makeReg(b), ir::Operand::makeReg(7)};
    undeclared.addOperation(add);
    EXPECT_EQ(validateMessage(undeclared),
              "operation 0 reads undeclared register");
}

TEST(LoopValidateTest, CrossIterationReadWithoutSeedThrows)
{
    ir::Loop loop("t");
    const ir::RegId x = loop.addRegister({"x", false, false}); // not live-in
    ir::Operation def;
    def.opcode = Opcode::kCopy;
    def.dest = x;
    def.sources = {ir::Operand::makeReg(x, 1)};
    loop.addOperation(def);
    EXPECT_THROW(loop.validate(), support::Error);
}

TEST(LoopValidateTest, GuardMustBePredicate)
{
    ir::Loop loop("t");
    const ir::RegId d = loop.addRegister({"d", false, true}); // data reg
    const ir::RegId y = loop.addRegister({"y", false, false});
    ir::Operation op;
    op.opcode = Opcode::kCopy;
    op.dest = y;
    op.sources = {ir::Operand::makeReg(d)};
    op.guard = ir::Operand::makeReg(d);
    loop.addOperation(op);
    EXPECT_THROW(loop.validate(), support::Error);
}

TEST(LoopValidateTest, MemoryOpNeedsMemRef)
{
    ir::Loop loop("t");
    const ir::RegId a = loop.addRegister({"a", false, true});
    const ir::RegId d = loop.addRegister({"d", false, false});
    ir::Operation op;
    op.opcode = Opcode::kLoad;
    op.dest = d;
    op.sources = {ir::Operand::makeReg(a)};
    // no memRef
    loop.addOperation(op);
    EXPECT_THROW(loop.validate(), support::Error);
}

TEST(LoopValidateTest, PseudoOpcodeRejected)
{
    ir::Loop loop("t");
    ir::Operation op;
    op.opcode = Opcode::kStart;
    loop.addOperation(op);
    EXPECT_THROW(loop.validate(), support::Error);
}

TEST(LoopValidateTest, NonPositiveStrideRejected)
{
    ir::Loop loop("t");
    const ir::ArrayId arr = loop.addArray({"A"});
    const ir::RegId a = loop.addRegister({"a", false, true});
    const ir::RegId d = loop.addRegister({"d", false, false});
    ir::Operation op;
    op.opcode = Opcode::kLoad;
    op.dest = d;
    op.sources = {ir::Operand::makeReg(a)};
    op.memRef = ir::MemRef{arr, 0, 0};
    loop.addOperation(op);
    EXPECT_THROW(loop.validate(), support::Error);
}

TEST(LoopPrintTest, OperationToStringShowsDistanceAndMemRef)
{
    ir::LoopBuilder b("t");
    b.recurrence("s");
    b.recurrence("ax");
    b.op(Opcode::kAddrAdd, "ax", {b.reg("ax", 3), b.imm(24)});
    b.load("x", "X", 1, b.reg("ax"));
    b.op(Opcode::kAdd, "s", {b.reg("s", 4), b.reg("x")});
    b.closeLoopBackSubstituted();
    const ir::Loop loop = b.build();

    const std::string text = loop.toString();
    EXPECT_NE(text.find("s[4]"), std::string::npos);
    EXPECT_NE(text.find("@ X[i+1]"), std::string::npos);
    EXPECT_NE(text.find("ax[3]"), std::string::npos);
}

TEST(LoopPrintTest, StridePrinted)
{
    ir::LoopBuilder b("t");
    b.recurrence("ax");
    b.op(Opcode::kAddrAdd, "ax", {b.reg("ax", 3), b.imm(24)});
    b.load("x", "X", 1, b.reg("ax"), "", 2);
    b.store("Y", 0, b.reg("ax"), b.reg("x"));
    b.closeLoopBackSubstituted();
    const ir::Loop loop = b.build();
    EXPECT_NE(loop.toString().find("@ X[2*i+1]"), std::string::npos);
}

TEST(LoopTest, MaxDistanceIncludesGuards)
{
    ir::LoopBuilder b("t");
    b.liveIn("p", true);
    b.recurrence("ax");
    b.op(Opcode::kAddrAdd, "ax", {b.reg("ax", 3), b.imm(24)});
    b.storeIf("Y", 0, b.reg("ax"), b.imm(1.0), b.reg("p", 5));
    b.closeLoopBackSubstituted();
    const ir::Loop loop = b.build();
    EXPECT_EQ(loop.maxDistance(), 5);
}

} // namespace
