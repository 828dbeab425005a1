#include <gtest/gtest.h>

#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "support/error.hpp"

namespace {

using namespace ims;

const char* kDaxpyText = R"(
; daxpy: y[i] += a * x[i]
loop daxpy
livein a
recurrence ax
ax = aadd ax[3], #24
xv = load ax @ X 0
yv = load ax @ Y 0
t  = mul a, xv
s  = add t, yv
_  = store ax, s @ Y 0
recurrence n
n  = asub n[3], #3
_  = branch n
)";

TEST(ParserTest, ParsesDaxpy)
{
    const ir::Loop loop = ir::parseLoop(kDaxpyText);
    EXPECT_EQ(loop.name(), "daxpy");
    EXPECT_EQ(loop.size(), 8);
    EXPECT_EQ(loop.numArrays(), 2);
    EXPECT_EQ(loop.maxDistance(), 3);
    EXPECT_NO_THROW(loop.validate());
}

TEST(ParserTest, ParsesGuardedOperations)
{
    const char* text = R"(
loop guarded
recurrence ax
ax = aadd ax[3], #24
x = load ax @ X 0
p = predset x, #0
_ = store ax, x @ Y 0 if p
recurrence n
n = asub n[3], #3
_ = branch n
)";
    const ir::Loop loop = ir::parseLoop(text);
    EXPECT_EQ(loop.size(), 6);
    bool found_guard = false;
    for (const auto& op : loop.operations())
        found_guard = found_guard || op.guard.has_value();
    EXPECT_TRUE(found_guard);
}

TEST(ParserTest, ParsesGuardWithDistance)
{
    const char* text = R"(
loop g2
predicate p
recurrence ax
ax = aadd ax[3], #24
_ = store ax, #1 @ Y 0 if p[2]
recurrence n
n = asub n[3], #3
_ = branch n
)";
    const ir::Loop loop = ir::parseLoop(text);
    bool checked = false;
    for (const auto& op : loop.operations()) {
        if (op.guard) {
            EXPECT_EQ(op.guard->distance, 2);
            checked = true;
        }
    }
    EXPECT_TRUE(checked);
}

TEST(ParserTest, ImmediateOperands)
{
    const char* text = R"(
loop imms
livein a
t = add a, #-2.5
recurrence n
n = asub n[3], #3
_ = branch n
)";
    const ir::Loop loop = ir::parseLoop(text);
    const auto& op = loop.operation(0);
    ASSERT_EQ(op.sources.size(), 2u);
    EXPECT_FALSE(op.sources[1].isRegister());
    EXPECT_DOUBLE_EQ(op.sources[1].immediate, -2.5);
}

/** A malformed loop text and the exact message it is rejected with. */
struct Rejection
{
    const char* text;
    const char* message;
};

TEST(ParserTest, RejectionsCarryExactMessages)
{
    const Rejection cases[] = {
        {"", "empty loop text"},
        {"\n# nothing\n",
         "line 2: expected 'loop <name>' as first directive"},
        {"loop t extra\n", "line 1: expected 'loop <name>' as first directive"},
        {"loop t\narray\n", "line 2: expected 'array <name>'"},
        {"loop t\nlivein a b\n", "line 2: expected 'livein <name>'"},
        {"loop t\npredicate\n", "line 2: expected 'predicate <name>'"},
        {"loop t\nx add a\n", "line 2: expected '<dest> = <opcode> ...'"},
        {"loop t\nx = frob a\n", "line 2: unknown opcode 'frob'"},
        {"loop t\nlivein a\nx = load a @ m\n",
         "line 3: expected '@ <array> <offset> [stride]'"},
        {"loop t\nlivein a\nx = load a @ m z\n",
         "line 3: bad memory offset/stride"},
        {"loop t\nlivein a\nx = load a @ m 0 99999999999\n",
         "line 3: bad memory offset/stride"},
        // Integers must parse in full, not as a prefix.
        {"loop t\nlivein a\nx = load a @ m 0y\n",
         "line 3: bad memory offset/stride"},
        {"loop t\nlivein a\nx = add a[1, a\n",
         "line 3: malformed register reference 'a[1'"},
        {"loop t\nlivein a\nx = add a[z], a\n",
         "line 3: bad distance in 'a[z]'"},
        {"loop t\nlivein a\nx = add a[], a\n", "line 3: bad distance in 'a[]'"},
        {"loop t\nlivein a\nx = add a[3x], a\n",
         "line 3: bad distance in 'a[3x]'"},
        {"loop t\nlivein a\nx = add #1e, a\n", "line 3: bad immediate '#1e'"},
        {"loop t\nlivein a\nx = add #, a\n", "line 3: bad immediate '#'"},
        {"loop t\nx = add q, #1\n",
         "line 2: operand register 'q' read before any definition; declare "
         "it with liveIn()/recurrence() or define it first"},
        // Words are rejoined with single spaces before operands split.
        {"loop t\nlivein a\nx = add a \t b, a\n",
         "line 3: operand register 'a b' read before any definition; "
         "declare it with liveIn()/recurrence() or define it first"},
        {"loop t\nlivein a\nx = add a, a if q\n",
         "line 3: operand register 'q' read before any definition; declare "
         "it with liveIn()/recurrence() or define it first"},
        // Raised inside the block that prefixes builder errors, so the
        // line number appears twice.
        {"loop t\nlivein a\nx = load a\n",
         "line 3: line 3: load requires '@ <array> <offset>'"},
        {"loop t\nlivein a\nx = load a, a @ m 0\n",
         "line 3: line 3: load takes one address operand"},
        {"loop t\nlivein a\n_ = store a, a\n",
         "line 3: line 3: store requires '@ <array> <offset>'"},
        {"loop t\nlivein a\n_ = store a @ m 0\n",
         "line 3: line 3: store takes address and value operands"},
        {"loop t\nlivein a\nx = add a, a\nx = add a, a\n",
         "line 4: register 'x' defined more than once (loop is in single "
         "assignment form)"},
        // Operand counts are checked when the loop is built, after the
        // last line: no line number.
        {"loop t\nlivein a\nx = add a\n",
         "operation 0 (add) has 1 operands, expected 2"},
    };
    for (const auto& rejection : cases) {
        try {
            ir::parseLoop(rejection.text);
            ADD_FAILURE() << "accepted: " << rejection.text;
        } catch (const support::Error& e) {
            EXPECT_EQ(std::string(e.what()), rejection.message)
                << "text: " << rejection.text;
        }
    }
}

TEST(ParserTest, LineOfOnlyVerticalWhitespaceIsAnOperationLine)
{
    // Blank-line trimming strips spaces, tabs and CRs only; a line left
    // with vertical tabs or form feeds has no words and is rejected as a
    // malformed operation line.
    try {
        ir::parseLoop("loop t\n\v\f\n");
        FAIL() << "must throw";
    } catch (const support::Error& e) {
        EXPECT_STREQ(e.what(), "line 2: expected '<dest> = <opcode> ...'");
    }
}

TEST(ParserTest, WhitespaceAndCommentsNormalize)
{
    const char* text = "  ; header\r\n"
                       "loop\tt  ; name\n"
                       "livein \t a\r\n"
                       "recurrence r\n"
                       "r = add r[2],\t#  1.5 ; comment\n"
                       "x\t=  load a ,  @ m 3 2\n"
                       "predicate p\n"
                       "_ = store a,x @ m -1 if\tp\n";
    // Immediates keep strtod's leading-space skip. (Strides, offsets and
    // distances must parse in full; see RejectionsCarryExactMessages.)
    EXPECT_EQ(ir::printLoop(ir::parseLoop(text)),
              "loop t\n"
              "livein a\n"
              "recurrence r\n"
              "predicate p\n"
              "r = add r[2], #1.5\n"
              "x = load a @ m 3 2\n"
              "_ = store a, x @ m -1 if p\n");
}

TEST(ParserTest, ErrorsCarryLineNumbers)
{
    const char* text = "loop t\nx = bogus a, b\n";
    try {
        ir::parseLoop(text);
        FAIL() << "must throw";
    } catch (const support::Error& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
    }
}

TEST(ParserTest, MissingLoopDirective)
{
    EXPECT_THROW(ir::parseLoop("x = add a, b\n"), support::Error);
}

TEST(ParserTest, EmptyTextRejected)
{
    EXPECT_THROW(ir::parseLoop("\n# nothing\n"), support::Error);
}

TEST(ParserTest, LoadWithoutMemRefRejected)
{
    const char* text = R"(
loop t
livein a
x = load a
)";
    EXPECT_THROW(ir::parseLoop(text), support::Error);
}

TEST(ParserTest, UndefinedOperandRejectedWithLine)
{
    const char* text = "loop t\nx = add ghost, #1\n";
    try {
        ir::parseLoop(text);
        FAIL() << "must throw";
    } catch (const support::Error& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
}

TEST(ParserTest, BadDistanceRejected)
{
    const char* text = "loop t\nlivein a\nx = copy a[zz]\n";
    EXPECT_THROW(ir::parseLoop(text), support::Error);
}

TEST(ParserTest, StridedMemoryReference)
{
    const char* text = R"(
loop strided
recurrence ax
ax = aadd ax[3], #24
x = load ax @ X 1 2
_ = store ax, x @ Y 0
recurrence n
n = asub n[3], #3
_ = branch n
)";
    const ir::Loop loop = ir::parseLoop(text);
    const auto& load = loop.operation(1);
    ASSERT_TRUE(load.memRef.has_value());
    EXPECT_EQ(load.memRef->offset, 1);
    EXPECT_EQ(load.memRef->stride, 2);
    const auto& store = loop.operation(2);
    EXPECT_EQ(store.memRef->stride, 1);
}

TEST(ParserTest, MalformedMemRefRejected)
{
    const char* text = "loop t\nlivein a\nx = load a @ X\n";
    EXPECT_THROW(ir::parseLoop(text), support::Error);
}

} // namespace
