#ifndef IMS_SIM_REGISTER_FILE_HPP
#define IMS_SIM_REGISTER_FILE_HPP

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <string>
#include <vector>

#include "ir/loop.hpp"
#include "sim/sequential_interpreter.hpp"
#include "sim/value.hpp"
#include "support/error.hpp"

namespace ims::sim {

/**
 * EVR-style register file shared by both execution engines: every
 * (register, iteration) pair has its own slot (flat, reg * trip + iter),
 * pure live-ins read their invariant value at any iteration, and
 * negative iterations read the seeds (falling back to the live-in value,
 * then 0) of the InitialState, which must outlive the register file.
 */
class RegisterFile
{
  public:
    RegisterFile(const ir::Loop& loop, const InitialState& initial)
        : loop_(loop), initial_(initial), tripCount_(initial.tripCount),
          slots_(static_cast<std::size_t>(loop.numRegisters()) *
                 static_cast<std::size_t>(tripCount_))
    {
    }

    /** Value of `reg` at (possibly negative) iteration `iter`. */
    Value
    read(ir::RegId reg, int iter) const
    {
        if (loop_.definingOp(reg) < 0)
            return initial_.liveIn[reg];
        if (iter < 0) {
            const int k = -1 - iter;
            if (k < initial_.seedCount[reg])
                return initial_.seeds[initial_.seedFirst[reg] + k];
            return initial_.liveIn[reg];
        }
        const Slot& slot = slots_[index(reg, iter)];
        support::check(slot.written, [&] {
            return "read of register '" + loop_.reg(reg).name +
                   "' at iteration " + std::to_string(iter) +
                   " before its definition executed (body not in "
                   "topological order, or schedule bug)";
        });
        return slot.value;
    }

    /** Operand read helper at base iteration `iter`. */
    Value
    readOperand(const ir::Operand& operand, int iter) const
    {
        if (!operand.isRegister())
            return operand.immediate;
        return read(operand.reg, iter - operand.distance);
    }

    void
    write(ir::RegId reg, int iter, Value value)
    {
        slots_[index(reg, iter)] = {value, true};
    }

    /** SimResult::finalRegisters (empty for zero trips or early exits). */
    std::vector<Value>
    finalRegisters() const
    {
        std::vector<Value> out;
        const auto& ops = loop_.operations();
        const auto is_exit = [](const ir::Operation& op) {
            return op.opcode == ir::Opcode::kExitIf;
        };
        if (tripCount_ == 0 || std::any_of(ops.begin(), ops.end(), is_exit))
            return out;
        out.resize(static_cast<std::size_t>(loop_.numRegisters()));
        for (ir::RegId reg = 0; reg < loop_.numRegisters(); ++reg) {
            if (loop_.definingOp(reg) >= 0)
                out[reg] = read(reg, tripCount_ - 1);
        }
        return out;
    }

    const ir::Loop& loop() const { return loop_; }

  private:
    std::size_t
    index(ir::RegId reg, int iter) const
    {
        assert(reg >= 0 && reg < loop_.numRegisters());
        assert(iter >= 0 && iter < tripCount_);
        return static_cast<std::size_t>(reg) * tripCount_ + iter;
    }

    const ir::Loop& loop_;
    const InitialState& initial_;
    int tripCount_;
    /** Value and written flag side by side: one allocation per run. */
    struct Slot
    {
        Value value = 0.0;
        bool written = false;
    };
    std::vector<Slot> slots_;
};

} // namespace ims::sim

#endif // IMS_SIM_REGISTER_FILE_HPP
