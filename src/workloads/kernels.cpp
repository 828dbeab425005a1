#include "workloads/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "ir/loop_builder.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace ims::workloads {

namespace {

using ir::LoopBuilder;
using ir::Opcode;

/** Fresh builder with a back-substituted address chain "ax". */
LoopBuilder
streamBuilder(const std::string& name)
{
    LoopBuilder b(name);
    b.recurrence("ax");
    b.op(Opcode::kAddrAdd, "ax", {b.reg("ax", 3), b.imm(24)},
         "address increment (back-substituted)");
    return b;
}

ir::Loop
initStore()
{
    // LFK-style initialization loop: a[i] = c. The paper notes a "large
    // number of initialization loops" drives the small-loop statistics.
    LoopBuilder b = streamBuilder("init_store");
    b.liveIn("c");
    b.store("A", 0, b.reg("ax"), b.reg("c"));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
vecCopy()
{
    LoopBuilder b = streamBuilder("vec_copy");
    b.load("x", "X", 0, b.reg("ax"));
    b.store("Y", 0, b.reg("ax"), b.reg("x"));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
vecScale()
{
    LoopBuilder b = streamBuilder("vec_scale");
    b.liveIn("a");
    b.load("x", "X", 0, b.reg("ax"));
    b.op(Opcode::kMul, "t", {b.reg("a"), b.reg("x")});
    b.store("Y", 0, b.reg("ax"), b.reg("t"));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
daxpy()
{
    // y[i] = y[i] + a * x[i].
    LoopBuilder b = streamBuilder("daxpy");
    b.liveIn("a");
    b.load("x", "X", 0, b.reg("ax"));
    b.load("y", "Y", 0, b.reg("ax"));
    b.op(Opcode::kMul, "t", {b.reg("a"), b.reg("x")});
    b.op(Opcode::kAdd, "s", {b.reg("t"), b.reg("y")});
    b.store("Y", 0, b.reg("ax"), b.reg("s"));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
dotRaw()
{
    // s += x[i] * y[i], raw recurrence: RecMII = adder latency.
    LoopBuilder b = streamBuilder("dot_raw");
    b.recurrence("s");
    b.load("x", "X", 0, b.reg("ax"));
    b.load("y", "Y", 0, b.reg("ax"));
    b.op(Opcode::kMul, "t", {b.reg("x"), b.reg("y")});
    b.op(Opcode::kAdd, "s", {b.reg("s", 1), b.reg("t")});
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
dotBs4()
{
    // Back-substituted dot product: four interleaved partial sums.
    LoopBuilder b = streamBuilder("dot_bs4");
    b.recurrence("s");
    b.load("x", "X", 0, b.reg("ax"));
    b.load("y", "Y", 0, b.reg("ax"));
    b.op(Opcode::kMul, "t", {b.reg("x"), b.reg("y")});
    b.op(Opcode::kAdd, "s", {b.reg("s", 4), b.reg("t")});
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
firstOrderRec()
{
    // x_{i} = a * x_{i-1} + b[i]: the classic two-op recurrence SCC.
    LoopBuilder b = streamBuilder("first_order_rec");
    b.liveIn("a");
    b.recurrence("x");
    b.load("bv", "B", 0, b.reg("ax"));
    b.op(Opcode::kMul, "m", {b.reg("a"), b.reg("x", 1)});
    b.op(Opcode::kAdd, "x", {b.reg("m"), b.reg("bv")});
    b.store("X", 0, b.reg("ax"), b.reg("x"));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
tridiag()
{
    // LFK 5: x[i] = z[i] * (y[i] - x[i-1]), register-carried.
    LoopBuilder b = streamBuilder("tridiag");
    b.recurrence("x");
    b.load("y", "Y", 0, b.reg("ax"));
    b.load("z", "Z", 0, b.reg("ax"));
    b.op(Opcode::kSub, "d", {b.reg("y"), b.reg("x", 1)});
    b.op(Opcode::kMul, "x", {b.reg("z"), b.reg("d")});
    b.store("X", 0, b.reg("ax"), b.reg("x"));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
hydroFrag()
{
    // LFK 1: x[i] = q + y[i] * (r * z[i+10] + t * z[i+11]).
    LoopBuilder b = streamBuilder("hydro_frag");
    b.liveIn("q").liveIn("r").liveIn("t");
    b.load("y", "Y", 0, b.reg("ax"));
    b.load("z10", "Z", 10, b.reg("ax"));
    b.load("z11", "Z", 11, b.reg("ax"));
    b.op(Opcode::kMul, "rz", {b.reg("r"), b.reg("z10")});
    b.op(Opcode::kMul, "tz", {b.reg("t"), b.reg("z11")});
    b.op(Opcode::kAdd, "zz", {b.reg("rz"), b.reg("tz")});
    b.op(Opcode::kMul, "yz", {b.reg("y"), b.reg("zz")});
    b.op(Opcode::kAdd, "x", {b.reg("q"), b.reg("yz")});
    b.store("X", 0, b.reg("ax"), b.reg("x"));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
stateFrag()
{
    // LFK 7 flavour: heavy streaming arithmetic over several arrays.
    LoopBuilder b = streamBuilder("state_frag");
    b.liveIn("r").liveIn("t");
    b.load("u", "U", 0, b.reg("ax"));
    b.load("z", "Z", 0, b.reg("ax"));
    b.load("y", "Y", 0, b.reg("ax"));
    b.load("u3", "U", 3, b.reg("ax"));
    b.load("u6", "U", 6, b.reg("ax"));
    b.op(Opcode::kMul, "rz", {b.reg("r"), b.reg("z")});
    b.op(Opcode::kAdd, "a1", {b.reg("u"), b.reg("rz")});
    b.op(Opcode::kMul, "ty", {b.reg("t"), b.reg("y")});
    b.op(Opcode::kAdd, "a2", {b.reg("a1"), b.reg("ty")});
    b.op(Opcode::kMul, "m1", {b.reg("u3"), b.reg("t")});
    b.op(Opcode::kAdd, "a3", {b.reg("a2"), b.reg("m1")});
    b.op(Opcode::kMul, "m2", {b.reg("u6"), b.reg("r")});
    b.op(Opcode::kAdd, "a4", {b.reg("a3"), b.reg("m2")});
    b.store("X", 0, b.reg("ax"), b.reg("a4"));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
iccgLike()
{
    // LFK 2 flavour with strided (unrolled) accesses: v[i] = x[2i] -
    // w[i] * x[2i+1].
    LoopBuilder b = streamBuilder("iccg_like");
    b.load("xe", "X", 0, b.reg("ax"), "", 2);
    b.load("xo", "X", 1, b.reg("ax"), "", 2);
    b.load("w", "W", 0, b.reg("ax"));
    b.op(Opcode::kMul, "wx", {b.reg("w"), b.reg("xo")});
    b.op(Opcode::kSub, "v", {b.reg("xe"), b.reg("wx")});
    b.store("V", 0, b.reg("ax"), b.reg("v"));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
bandedInner()
{
    // Banded linear equations inner loop: two address chains, fused
    // multiply-add into a back-substituted accumulator.
    LoopBuilder b("banded_inner");
    b.recurrence("ai").recurrence("aj").recurrence("s");
    b.op(Opcode::kAddrAdd, "ai", {b.reg("ai", 3), b.imm(24)});
    b.op(Opcode::kAddrSub, "aj", {b.reg("aj", 3), b.imm(24)});
    b.load("p", "P", 0, b.reg("ai"));
    b.load("q", "Q", 0, b.reg("aj"));
    b.op(Opcode::kMul, "t", {b.reg("p"), b.reg("q")});
    b.op(Opcode::kAdd, "s", {b.reg("s", 4), b.reg("t")});
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
stencil3()
{
    // y[i] = w * (x[i-1] + x[i] + x[i+1]): read-only stencil.
    LoopBuilder b = streamBuilder("stencil3");
    b.liveIn("w");
    b.load("xm", "X", -1, b.reg("ax"));
    b.load("x0", "X", 0, b.reg("ax"));
    b.load("xp", "X", 1, b.reg("ax"));
    b.op(Opcode::kAdd, "s1", {b.reg("xm"), b.reg("x0")});
    b.op(Opcode::kAdd, "s2", {b.reg("s1"), b.reg("xp")});
    b.op(Opcode::kMul, "y", {b.reg("w"), b.reg("s2")});
    b.store("Y", 0, b.reg("ax"), b.reg("y"));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
memRecurrence()
{
    // a[i] = a[i-1] * r + b[i]: loop-carried dependence through memory,
    // dominated by the 20-cycle load (large RecMII tail of Table 3).
    LoopBuilder b = streamBuilder("mem_recurrence");
    b.liveIn("r");
    b.load("prev", "A", -1, b.reg("ax"));
    b.load("bv", "B", 0, b.reg("ax"));
    b.op(Opcode::kMul, "m", {b.reg("prev"), b.reg("r")});
    b.op(Opcode::kAdd, "v", {b.reg("m"), b.reg("bv")});
    b.store("A", 0, b.reg("ax"), b.reg("v"));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
condStore()
{
    // if (x[i] > 0) y[i] = x[i]: IF-converted body with a guarded store.
    LoopBuilder b = streamBuilder("cond_store");
    b.load("x", "X", 0, b.reg("ax"));
    b.op(Opcode::kPredSet, "p", {b.reg("x"), b.imm(0)});
    b.storeIf("Y", 0, b.reg("ax"), b.reg("x"), b.reg("p"));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
clipSelect()
{
    // y[i] = min(x[i], hi) via compare + select (IF-conversion merge).
    LoopBuilder b = streamBuilder("clip_select");
    b.liveIn("hi");
    b.load("x", "X", 0, b.reg("ax"));
    b.op(Opcode::kCmpGt, "t", {b.reg("x"), b.reg("hi")});
    b.op(Opcode::kSelect, "y", {b.reg("t"), b.reg("hi"), b.reg("x")});
    b.store("Y", 0, b.reg("ax"), b.reg("y"));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
maxReduce()
{
    // m = max(m, x[i]): reduction with a reflexive adder recurrence.
    LoopBuilder b = streamBuilder("max_reduce");
    b.recurrence("m");
    b.load("x", "X", 0, b.reg("ax"));
    b.op(Opcode::kMax, "m", {b.reg("m", 1), b.reg("x")});
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
argmaxLike()
{
    // LFK 24 flavour: track the running maximum and a tagged payload
    // (intertwined recurrences).
    LoopBuilder b = streamBuilder("argmax_like");
    b.recurrence("m").recurrence("idx");
    b.load("x", "X", 0, b.reg("ax"));
    b.load("tag", "T", 0, b.reg("ax"));
    b.op(Opcode::kCmpGt, "c", {b.reg("x"), b.reg("m", 1)});
    b.op(Opcode::kMax, "m", {b.reg("m", 1), b.reg("x")});
    b.op(Opcode::kSelect, "idx",
         {b.reg("c"), b.reg("tag"), b.reg("idx", 1)});
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
divKernel()
{
    // y[i] = a[i] / b[i]: the divide's block reservation table makes this
    // resource-bound (ResMII ~ the blocked multiplier stage occupancy).
    LoopBuilder b = streamBuilder("div_kernel");
    b.load("a", "A", 0, b.reg("ax"));
    b.load("bv", "B", 0, b.reg("ax"));
    b.op(Opcode::kDiv, "y", {b.reg("a"), b.reg("bv")});
    b.store("Y", 0, b.reg("ax"), b.reg("y"));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
sqrtKernel()
{
    LoopBuilder b = streamBuilder("sqrt_kernel");
    b.load("x", "X", 0, b.reg("ax"));
    b.op(Opcode::kSqrt, "y", {b.reg("x")});
    b.store("Y", 0, b.reg("ax"), b.reg("y"));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
hornerRec()
{
    // s = s * x + c[i]: polynomial evaluation (two-op recurrence with an
    // invariant multiplicand).
    LoopBuilder b = streamBuilder("horner_rec");
    b.liveIn("x");
    b.recurrence("s");
    b.load("c", "C", 0, b.reg("ax"));
    b.op(Opcode::kMul, "sx", {b.reg("s", 1), b.reg("x")});
    b.op(Opcode::kAdd, "s", {b.reg("sx"), b.reg("c")});
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
unrolledDaxpy2()
{
    // daxpy unrolled by two: stride-2 accesses, two independent lanes.
    LoopBuilder b("unrolled_daxpy2");
    b.liveIn("a");
    b.recurrence("ax");
    b.op(Opcode::kAddrAdd, "ax", {b.reg("ax", 3), b.imm(48)});
    for (int lane = 0; lane < 2; ++lane) {
        const std::string sfx = std::to_string(lane);
        b.load("x" + sfx, "X", lane, b.reg("ax"), "", 2);
        b.load("y" + sfx, "Y", lane, b.reg("ax"), "", 2);
        b.op(Opcode::kMul, "t" + sfx, {b.reg("a"), b.reg("x" + sfx)});
        b.op(Opcode::kAdd, "s" + sfx,
             {b.reg("t" + sfx), b.reg("y" + sfx)});
        b.store("Y", lane, b.reg("ax"), b.reg("s" + sfx), "", 2);
    }
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
predicatedMix()
{
    // Hyperblock flavour: two complementary guarded stores.
    LoopBuilder b = streamBuilder("predicated_mix");
    b.liveIn("lo");
    b.load("x", "X", 0, b.reg("ax"));
    b.op(Opcode::kPredSet, "p", {b.reg("x"), b.reg("lo")});
    b.op(Opcode::kPredSet, "q", {b.reg("lo"), b.reg("x")});
    b.op(Opcode::kMul, "x2", {b.reg("x"), b.reg("x")});
    b.storeIf("Y", 0, b.reg("ax"), b.reg("x2"), b.reg("p"));
    b.storeIf("Z", 0, b.reg("ax"), b.reg("x"), b.reg("q"));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
wideTree()
{
    // A wide balanced reduction tree over eight loads (ILP-rich).
    LoopBuilder b = streamBuilder("wide_tree");
    for (int k = 0; k < 8; ++k) {
        b.load("x" + std::to_string(k), "X", k, b.reg("ax"));
    }
    for (int k = 0; k < 4; ++k) {
        b.op(Opcode::kAdd, "s" + std::to_string(k),
             {b.reg("x" + std::to_string(2 * k)),
              b.reg("x" + std::to_string(2 * k + 1))});
    }
    b.op(Opcode::kAdd, "t0", {b.reg("s0"), b.reg("s1")});
    b.op(Opcode::kAdd, "t1", {b.reg("s2"), b.reg("s3")});
    b.op(Opcode::kAdd, "r", {b.reg("t0"), b.reg("t1")});
    b.store("Y", 0, b.reg("ax"), b.reg("r"));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
longChain()
{
    // A serial chain of dependent adds: long SL, small II (latency-bound
    // schedule length, resource-light).
    LoopBuilder b = streamBuilder("long_chain");
    b.load("x", "X", 0, b.reg("ax"));
    std::string prev = "x";
    for (int k = 0; k < 10; ++k) {
        const std::string name = "c" + std::to_string(k);
        b.op(Opcode::kAdd, name, {b.reg(prev), b.imm(1.0)});
        prev = name;
    }
    b.store("Y", 0, b.reg("ax"), b.reg(prev));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
multiArray()
{
    // Four independent copy streams: memory-port bound.
    LoopBuilder b = streamBuilder("multi_array");
    const char* sources[] = {"A", "B", "C", "D"};
    const char* sinks[] = {"E", "F", "G", "H"};
    for (int k = 0; k < 4; ++k) {
        const std::string v = "v" + std::to_string(k);
        b.load(v, sources[k], 0, b.reg("ax"));
        b.store(sinks[k], 0, b.reg("ax"), b.reg(v));
    }
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
fatLoop()
{
    // A large streaming body (~60 ops): the Table 3 long-tail shape.
    LoopBuilder b = streamBuilder("fat_loop");
    b.liveIn("a").liveIn("c");
    for (int k = 0; k < 8; ++k) {
        const std::string sfx = std::to_string(k);
        b.load("x" + sfx, "X", k, b.reg("ax"));
        b.load("y" + sfx, "Y", k, b.reg("ax"));
        b.op(Opcode::kMul, "m" + sfx, {b.reg("a"), b.reg("x" + sfx)});
        b.op(Opcode::kAdd, "s" + sfx,
             {b.reg("m" + sfx), b.reg("y" + sfx)});
        b.op(Opcode::kMax, "w" + sfx, {b.reg("s" + sfx), b.reg("c")});
        b.store("Z", k, b.reg("ax"), b.reg("w" + sfx));
    }
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
secondOrderRec()
{
    // x_i = a * x_{i-1} + b * x_{i-2}: second-order linear recurrence.
    LoopBuilder b = streamBuilder("second_order_rec");
    b.liveIn("a").liveIn("c");
    b.recurrence("x");
    b.op(Opcode::kMul, "m1", {b.reg("a"), b.reg("x", 1)});
    b.op(Opcode::kMul, "m2", {b.reg("c"), b.reg("x", 2)});
    b.op(Opcode::kAdd, "x", {b.reg("m1"), b.reg("m2")});
    b.store("X", 0, b.reg("ax"), b.reg("x"));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
avgPair()
{
    // y[i] = (x[i] + x[i+1]) / 2 via multiply by 0.5 (pair averaging).
    LoopBuilder b = streamBuilder("avg_pair");
    b.load("x0", "X", 0, b.reg("ax"));
    b.load("x1", "X", 1, b.reg("ax"));
    b.op(Opcode::kAdd, "s", {b.reg("x0"), b.reg("x1")});
    b.op(Opcode::kMul, "y", {b.reg("s"), b.imm(0.5)});
    b.store("Y", 0, b.reg("ax"), b.reg("y"));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
absDiffSum()
{
    // s += |x[i] - y[i]| with a back-substituted accumulator.
    LoopBuilder b = streamBuilder("abs_diff_sum");
    b.recurrence("s");
    b.load("x", "X", 0, b.reg("ax"));
    b.load("y", "Y", 0, b.reg("ax"));
    b.op(Opcode::kSub, "d", {b.reg("x"), b.reg("y")});
    b.op(Opcode::kAbs, "ad", {b.reg("d")});
    b.op(Opcode::kAdd, "s", {b.reg("s", 4), b.reg("ad")});
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
lfk9Predictors()
{
    // LFK 9 flavour (integrate predictors): one output as a weighted sum
    // of many neighbouring inputs with invariant coefficients.
    LoopBuilder b = streamBuilder("lfk9_predictors");
    std::string sum;
    for (int k = 0; k < 9; ++k) {
        const std::string coeff = "c" + std::to_string(k);
        b.liveIn(coeff);
        const std::string value = "px" + std::to_string(k);
        b.load(value, "PX", k, b.reg("ax"));
        const std::string term = "m" + std::to_string(k);
        b.op(Opcode::kMul, term, {b.reg(coeff), b.reg(value)});
        if (k == 0) {
            sum = term;
        } else {
            const std::string next = "s" + std::to_string(k);
            b.op(Opcode::kAdd, next, {b.reg(sum), b.reg(term)});
            sum = next;
        }
    }
    b.store("PX", -1, b.reg("ax"), b.reg(sum));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
lfk12FirstDiff()
{
    // LFK 12: x[i] = y[i+1] - y[i].
    LoopBuilder b = streamBuilder("lfk12_first_diff");
    b.load("y0", "Y", 0, b.reg("ax"));
    b.load("y1", "Y", 1, b.reg("ax"));
    b.op(Opcode::kSub, "d", {b.reg("y1"), b.reg("y0")});
    b.store("X", 0, b.reg("ax"), b.reg("d"));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
lfk20Ordinates()
{
    // LFK 20 flavour (discrete ordinates): a divide inside a first-order
    // recurrence — a very long recurrence circuit (the MII tail).
    LoopBuilder b = streamBuilder("lfk20_ordinates");
    b.liveIn("a").liveIn("c");
    b.recurrence("xx");
    b.load("y", "Y", 0, b.reg("ax"));
    b.op(Opcode::kMul, "num", {b.reg("a"), b.reg("xx", 1)});
    b.op(Opcode::kAdd, "num2", {b.reg("num"), b.reg("y")});
    b.op(Opcode::kAdd, "den", {b.reg("y"), b.reg("c")});
    b.op(Opcode::kDiv, "xx", {b.reg("num2"), b.reg("den")});
    b.store("X", 0, b.reg("ax"), b.reg("xx"));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
fir8()
{
    // 8-tap FIR filter: y[i] = sum_k c_k * x[i+k], balanced add tree.
    LoopBuilder b = streamBuilder("fir8");
    for (int k = 0; k < 8; ++k) {
        b.liveIn("c" + std::to_string(k));
        b.load("x" + std::to_string(k), "X", k, b.reg("ax"));
        b.op(Opcode::kMul, "m" + std::to_string(k),
             {b.reg("c" + std::to_string(k)),
              b.reg("x" + std::to_string(k))});
    }
    for (int k = 0; k < 4; ++k) {
        b.op(Opcode::kAdd, "a" + std::to_string(k),
             {b.reg("m" + std::to_string(2 * k)),
              b.reg("m" + std::to_string(2 * k + 1))});
    }
    b.op(Opcode::kAdd, "b0", {b.reg("a0"), b.reg("a1")});
    b.op(Opcode::kAdd, "b1", {b.reg("a2"), b.reg("a3")});
    b.op(Opcode::kAdd, "y", {b.reg("b0"), b.reg("b1")});
    b.store("Y", 0, b.reg("ax"), b.reg("y"));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
complexMult()
{
    // Interleaved complex multiply: (a+bi)(c+di), stride-2 arrays.
    LoopBuilder b("complex_mult");
    b.recurrence("ax");
    b.op(Opcode::kAddrAdd, "ax", {b.reg("ax", 3), b.imm(48)});
    b.load("ar", "A", 0, b.reg("ax"), "", 2);
    b.load("ai", "A", 1, b.reg("ax"), "", 2);
    b.load("br", "B", 0, b.reg("ax"), "", 2);
    b.load("bi", "B", 1, b.reg("ax"), "", 2);
    b.op(Opcode::kMul, "rr", {b.reg("ar"), b.reg("br")});
    b.op(Opcode::kMul, "ii", {b.reg("ai"), b.reg("bi")});
    b.op(Opcode::kMul, "ri", {b.reg("ar"), b.reg("bi")});
    b.op(Opcode::kMul, "ir", {b.reg("ai"), b.reg("br")});
    b.op(Opcode::kSub, "cr", {b.reg("rr"), b.reg("ii")});
    b.op(Opcode::kAdd, "ci", {b.reg("ri"), b.reg("ir")});
    b.store("C", 0, b.reg("ax"), b.reg("cr"), "", 2);
    b.store("C", 1, b.reg("ax"), b.reg("ci"), "", 2);
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
lfk10DiffPredictors()
{
    // LFK 10 flavour: cascading differences, each cascade level stored
    // to its own array — heavily memory-port bound.
    LoopBuilder b = streamBuilder("lfk10_diff_predictors");
    b.load("v", "CX", 0, b.reg("ax"));
    std::string prev = "v";
    for (int k = 0; k < 5; ++k) {
        const std::string hist = "h" + std::to_string(k);
        b.load(hist, "PY" + std::to_string(k), 0, b.reg("ax"));
        const std::string diff = "d" + std::to_string(k);
        b.op(Opcode::kSub, diff, {b.reg(prev), b.reg(hist)});
        b.store("PY" + std::to_string(k), 0, b.reg("ax"), b.reg(prev));
        prev = diff;
    }
    b.store("DX", 0, b.reg("ax"), b.reg(prev));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
dualStore()
{
    // y[i] = x[i] and z[i] = x[i]: three memory references and no adder
    // traffic, so the rational ResMII is 3/2 — the fractional-MII case
    // §2 addresses by unrolling before modulo scheduling.
    LoopBuilder b = streamBuilder("dual_store");
    b.load("x", "X", 0, b.reg("ax"));
    b.store("Y", 0, b.reg("ax"), b.reg("x"));
    b.store("Z", 0, b.reg("ax"), b.reg("x"));
    b.closeLoopBackSubstituted();
    return b.build();
}

ir::Loop
rawCounterLoop()
{
    // A loop whose control recurrence was NOT back-substituted: the
    // distance-1 counter forces RecMII = address-ALU latency.
    LoopBuilder b("raw_counter");
    b.recurrence("ax");
    b.op(Opcode::kAddrAdd, "ax", {b.reg("ax", 1), b.imm(8)},
         "raw address increment");
    b.liveIn("c");
    b.store("A", 0, b.reg("ax"), b.reg("c"));
    b.closeLoop();
    return b.build();
}

} // namespace

ir::Loop
searchSum()
{
    // WHILE-loop flavour: accumulate x[i] into S[i] until a negative
    // element is found (or the trip-count cap runs out). The store and
    // the accumulator update follow the exit in program order, so they
    // do not execute in the exiting iteration.
    LoopBuilder b = streamBuilder("search_sum");
    b.recurrence("s");
    b.load("x", "X", 0, b.reg("ax"));
    b.op(Opcode::kSub, "neg", {b.imm(0), b.reg("x")});
    b.exitIf(b.reg("neg"), "leave at the first negative element");
    b.op(Opcode::kAdd, "s", {b.reg("s", 1), b.reg("x")});
    b.store("S", 0, b.reg("ax"), b.reg("s"));
    b.closeLoopBackSubstituted();
    return b.build();
}

std::vector<Workload>
kernelLibrary()
{
    std::vector<Workload> kernels;
    auto add = [&kernels](ir::Loop loop, const std::string& description) {
        kernels.push_back(
            Workload{std::move(loop), "lfk", description});
    };

    add(initStore(), "initialization loop: a[i] = c");
    add(vecCopy(), "vector copy");
    add(vecScale(), "vector scale: y = a*x");
    add(daxpy(), "daxpy: y += a*x");
    add(dotRaw(), "dot product, raw recurrence");
    add(dotBs4(), "dot product, 4-way back-substituted");
    add(firstOrderRec(), "first-order linear recurrence");
    add(tridiag(), "LFK5 tridiagonal elimination");
    add(hydroFrag(), "LFK1 hydro fragment");
    add(stateFrag(), "LFK7 state equation fragment");
    add(iccgLike(), "LFK2 ICCG flavour, strided");
    add(bandedInner(), "banded matmul inner product");
    add(stencil3(), "3-point stencil");
    add(memRecurrence(), "recurrence through memory");
    add(condStore(), "predicated conditional store");
    add(clipSelect(), "clip via compare+select");
    add(maxReduce(), "max reduction");
    add(argmaxLike(), "LFK24 location-of-max flavour");
    add(divKernel(), "elementwise divide (block table)");
    add(sqrtKernel(), "elementwise sqrt (block table)");
    add(hornerRec(), "Horner polynomial recurrence");
    add(unrolledDaxpy2(), "daxpy unrolled by 2 (stride 2)");
    add(predicatedMix(), "hyperblock with two guarded stores");
    add(wideTree(), "wide reduction tree");
    add(longChain(), "serial dependence chain");
    add(multiArray(), "four parallel copy streams");
    add(fatLoop(), "large streaming body");
    add(secondOrderRec(), "second-order linear recurrence");
    add(avgPair(), "pair averaging");
    add(absDiffSum(), "sum of absolute differences");
    add(lfk9Predictors(), "LFK9 integrate predictors (weighted window)");
    add(lfk12FirstDiff(), "LFK12 first difference");
    add(lfk20Ordinates(), "LFK20 discrete ordinates (div recurrence)");
    add(fir8(), "8-tap FIR filter");
    add(complexMult(), "interleaved complex multiply (stride 2)");
    add(lfk10DiffPredictors(), "LFK10 difference predictors (store-heavy)");
    add(dualStore(), "dual store (fractional ResMII 3/2)");
    add(rawCounterLoop(), "non-back-substituted counter loop");
    add(searchSum(), "WHILE-loop: accumulate until a negative element");

    return kernels;
}

Workload
kernelByName(const std::string& name)
{
    for (auto& workload : kernelLibrary()) {
        if (workload.loop.name() == name)
            return workload;
    }
    throw support::Error("unknown kernel '" + name + "'");
}

namespace {

/** The shape of the simulation input for `loop` at one trip count. */
struct InputShape
{
    int margin = 0;
    /** Initialised cells per array, from logical index -margin. */
    int cells = 0;
    int maxDistance = 0;
};

InputShape
inputShape(const ir::Loop& loop, int trip_count)
{
    int max_offset = 0;
    int max_stride = 1;
    for (const auto& op : loop.operations()) {
        if (op.memRef) {
            max_offset = std::max(max_offset, std::abs(op.memRef->offset));
            max_stride = std::max(max_stride, op.memRef->stride);
        }
    }
    const int max_distance = loop.maxDistance();
    const int margin = std::max(8, max_offset + max_distance + 2);
    return {margin, max_stride * trip_count + 2 * margin, max_distance};
}

} // namespace

sim::InitialState
makeInitialState(const ir::Loop& loop, int trip_count, std::uint64_t seed)
{
    support::check(trip_count >= 0, "trip count must be non-negative");
    const InputShape shape = inputShape(loop, trip_count);
    const auto regs = static_cast<std::size_t>(loop.numRegisters());
    sim::InitialState state{trip_count,
                            std::vector<sim::Value>(regs),
                            {},
                            std::vector<int>(regs),
                            std::vector<int>(regs),
                            sim::Memory(loop, trip_count, shape.margin)};
    // The draw order defines the input: every cell of each array, then
    // each live-in's value (none for predicates) and seeds.
    state.seeds.reserve(regs * shape.maxDistance);
    support::Rng rng(seed);
    const auto draw = [&] { return rng.uniformReal() * 4.0 - 2.0; };
    for (ir::ArrayId array = 0; array < loop.numArrays(); ++array) {
        for (int k = 0; k < shape.cells; ++k)
            state.memory.write(array, k - shape.margin, draw());
    }
    for (ir::RegId reg = 0; reg < loop.numRegisters(); ++reg) {
        const ir::RegisterInfo& info = loop.reg(reg);
        if (!info.isLiveIn)
            continue;
        state.liveIn[reg] = info.isPredicate ? 0.0 : draw();
        if (shape.maxDistance > 0) {
            state.seedFirst[reg] = static_cast<int>(state.seeds.size());
            state.seedCount[reg] = shape.maxDistance;
            for (int k = 0; k < shape.maxDistance; ++k)
                state.seeds.push_back(draw());
        }
    }
    return state;
}

sim::SimSpec
makeSimSpec(const ir::Loop& loop, int trip_count, std::uint64_t seed)
{
    const sim::InitialState state = makeInitialState(loop, trip_count, seed);
    const InputShape shape = inputShape(loop, trip_count);
    sim::SimSpec spec;
    spec.tripCount = trip_count;
    spec.margin = shape.margin;
    for (ir::ArrayId array = 0; array < loop.numArrays(); ++array) {
        spec.arrays[loop.arrays()[array].name] = {
            -shape.margin,
            state.memory.snapshot(array, -shape.margin, shape.cells)};
    }
    for (ir::RegId reg = 0; reg < loop.numRegisters(); ++reg) {
        const ir::RegisterInfo& info = loop.reg(reg);
        if (!info.isLiveIn)
            continue;
        spec.liveIn[info.name] = state.liveIn[reg];
        if (state.seedCount[reg] > 0) {
            const auto first = state.seeds.begin() + state.seedFirst[reg];
            spec.seeds[info.name].assign(first,
                                         first + state.seedCount[reg]);
        }
    }
    return spec;
}

} // namespace ims::workloads
