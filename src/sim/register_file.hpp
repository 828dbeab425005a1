#ifndef IMS_SIM_REGISTER_FILE_HPP
#define IMS_SIM_REGISTER_FILE_HPP

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
 * (register, iteration) pair has its own slot, pure live-ins read their
 * invariant value at any iteration, and negative iterations read the
 * SimSpec seeds (falling back to the live-in value, then 0).
 *
 * Slots live in flat arrays indexed reg * trip + iter, and the seeds in
 * one array with a [first, first + count) range per register, so a
 * register file costs a handful of allocations however long the loop.
 */
class RegisterFile
{
  public:
    RegisterFile(const ir::Loop& loop, const SimSpec& spec, int trip_count)
        : loop_(loop), tripCount_(trip_count)
    {
        const int regs = loop.numRegisters();
        const std::size_t slots = static_cast<std::size_t>(regs) *
                                  static_cast<std::size_t>(trip_count);
        values_.assign(slots, 0.0);
        written_.assign(slots, 0);
        liveIn_.assign(regs, 0.0);
        seedFirst_.assign(regs, 0);
        seedCount_.assign(regs, 0);
        for (ir::RegId reg = 0; reg < regs; ++reg) {
            const auto& name = loop.reg(reg).name;
            if (auto it = spec.liveIn.find(name); it != spec.liveIn.end())
                liveIn_[reg] = it->second;
            if (auto it = spec.seeds.find(name); it != spec.seeds.end()) {
                seedFirst_[reg] = static_cast<int>(seeds_.size());
                seedCount_[reg] = static_cast<int>(it->second.size());
                seeds_.insert(seeds_.end(), it->second.begin(),
                              it->second.end());
            }
        }
    }

    /** Value of `reg` at (possibly negative) iteration `iter`. */
    Value
    read(ir::RegId reg, int iter) const
    {
        if (loop_.definingOp(reg) < 0)
            return liveIn_[reg];
        if (iter < 0) {
            const int k = -1 - iter;
            if (k < seedCount_[reg])
                return seeds_[seedFirst_[reg] + k];
            return liveIn_[reg];
        }
        const std::size_t slot = index(reg, iter);
        support::check(written_[slot] != 0, [&] {
            return "read of register '" + loop_.reg(reg).name +
                   "' at iteration " + std::to_string(iter) +
                   " before its definition executed (body not in "
                   "topological order, or schedule bug)";
        });
        return values_[slot];
    }

    /** Operand read helper at base iteration `iter`. */
    Value
    readOperand(const ir::Operand& operand, int iter) const
    {
        if (!operand.isRegister())
            return operand.immediate;
        return read(operand.reg, iter - operand.distance);
    }

    /**
     * Result of the non-memory operation `op` for iteration `iter`, its
     * operands read from this register file into a stack buffer.
     */
    Value
    compute(const ir::Operation& op, int iter) const
    {
        assert(op.sources.size() <= static_cast<std::size_t>(ir::kMaxSources));
        Value sources[ir::kMaxSources];
        int count = 0;
        for (const auto& src : op.sources)
            sources[count++] = readOperand(src, iter);
        return evaluate(op.opcode, sources, count);
    }

    /** True once `reg`'s instance for iteration `iter` was computed. */
    bool
    isWritten(ir::RegId reg, int iter) const
    {
        return iter >= 0 && iter < tripCount_ && written_[index(reg, iter)];
    }

    void
    write(ir::RegId reg, int iter, Value value)
    {
        const std::size_t slot = index(reg, iter);
        values_[slot] = value;
        written_[slot] = 1;
    }

  private:
    std::size_t
    index(ir::RegId reg, int iter) const
    {
        assert(reg >= 0 && reg < loop_.numRegisters());
        assert(iter >= 0 && iter < tripCount_);
        return static_cast<std::size_t>(reg) * tripCount_ + iter;
    }

    const ir::Loop& loop_;
    int tripCount_;
    std::vector<Value> values_;
    std::vector<char> written_;
    std::vector<Value> liveIn_;
    std::vector<Value> seeds_;
    std::vector<int> seedFirst_;
    std::vector<int> seedCount_;
};

} // namespace ims::sim

#endif // IMS_SIM_REGISTER_FILE_HPP
