#include "ir/printer.hpp"

#include <cmath>

#include "support/table.hpp"

namespace ims::ir {

namespace {

void
appendOperand(std::string& out, const Loop& loop, const Operand& operand)
{
    if (!operand.isRegister()) {
        out += '#';
        // One spelling per value: the schedule cache keys on this text,
        // so print(parse(print(x))) == print(x) byte-for-byte.
        support::appendRoundTripDouble(out, operand.immediate);
        return;
    }
    out += loop.reg(operand.reg).name;
    if (operand.distance > 0) {
        out += '[';
        out += std::to_string(operand.distance);
        out += ']';
    }
}

} // namespace

std::string
printLoop(const Loop& loop)
{
    std::string out;
    out.reserve(32 * (loop.size() + 2));
    out += "loop ";
    out += loop.name();
    out += '\n';

    // Declarations: only live-in registers need declaring (the parser
    // creates plain registers and arrays on first mention). "recurrence"
    // and "livein" are synonyms; use the former when the register is also
    // defined in the body, matching hand-written kernels.
    for (RegId reg = 0; reg < loop.numRegisters(); ++reg) {
        const RegisterInfo& info = loop.reg(reg);
        if (!info.isLiveIn)
            continue;
        if (info.isPredicate)
            out += "predicate ";
        else if (loop.definingOp(reg) >= 0)
            out += "recurrence ";
        else
            out += "livein ";
        out += info.name;
        out += '\n';
    }

    for (const Operation& op : loop.operations()) {
        if (op.hasDest())
            out += loop.reg(op.dest).name;
        else
            out += '_';
        out += " = ";
        out += opcodeName(op.opcode);
        for (std::size_t i = 0; i < op.sources.size(); ++i) {
            out += i == 0 ? " " : ", ";
            appendOperand(out, loop, op.sources[i]);
        }
        if (op.memRef) {
            out += " @ ";
            out += loop.arrays()[op.memRef->array].name;
            out += ' ';
            out += std::to_string(op.memRef->offset);
            if (op.memRef->stride != 1) {
                out += ' ';
                out += std::to_string(op.memRef->stride);
            }
        }
        if (op.guard) {
            out += " if ";
            appendOperand(out, loop, *op.guard);
        }
        out += '\n';
    }
    return out;
}

bool
equivalentLoops(const Loop& a, const Loop& b)
{
    if (a.size() != b.size())
        return false;

    auto same_operand = [&](const Operand& x, const Operand& y) {
        if (x.kind != y.kind)
            return false;
        if (!x.isRegister()) {
            return x.immediate == y.immediate ||
                   (std::isnan(x.immediate) && std::isnan(y.immediate));
        }
        const RegisterInfo& rx = a.reg(x.reg);
        const RegisterInfo& ry = b.reg(y.reg);
        return x.distance == y.distance && rx.name == ry.name &&
               rx.isPredicate == ry.isPredicate &&
               rx.isLiveIn == ry.isLiveIn;
    };

    for (OpId id = 0; id < a.size(); ++id) {
        const Operation& x = a.operation(id);
        const Operation& y = b.operation(id);
        if (x.opcode != y.opcode || x.hasDest() != y.hasDest())
            return false;
        if (x.hasDest() &&
            (a.reg(x.dest).name != b.reg(y.dest).name ||
             a.reg(x.dest).isPredicate != b.reg(y.dest).isPredicate))
            return false;
        if (x.sources.size() != y.sources.size())
            return false;
        for (std::size_t k = 0; k < x.sources.size(); ++k) {
            if (!same_operand(x.sources[k], y.sources[k]))
                return false;
        }
        if (x.guard.has_value() != y.guard.has_value())
            return false;
        if (x.guard && !same_operand(*x.guard, *y.guard))
            return false;
        if (x.memRef.has_value() != y.memRef.has_value())
            return false;
        if (x.memRef) {
            if (a.arrays()[x.memRef->array].name !=
                    b.arrays()[y.memRef->array].name ||
                x.memRef->offset != y.memRef->offset ||
                x.memRef->stride != y.memRef->stride)
                return false;
        }
    }
    return true;
}

} // namespace ims::ir
