#include "sim/sequential_interpreter.hpp"

#include "sim/register_file.hpp"
#include "support/error.hpp"

namespace ims::sim {

bool
equivalent(const SimResult& a, const SimResult& b)
{
    if (a.executedIterations != b.executedIterations)
        return false;
    if (!(a.memory == b.memory))
        return false;
    if (a.finalRegisters.size() != b.finalRegisters.size())
        return false;
    for (const auto& [name, value] : a.finalRegisters) {
        const auto it = b.finalRegisters.find(name);
        if (it == b.finalRegisters.end() || !sameValue(value, it->second))
            return false;
    }
    return true;
}

std::string
describeDifference(const SimResult& a, const SimResult& b)
{
    if (a.executedIterations != b.executedIterations) {
        return "executed iterations " +
               std::to_string(a.executedIterations) + " vs " +
               std::to_string(b.executedIterations);
    }
    const std::string memory = a.memory.firstDifference(b.memory);
    if (!memory.empty())
        return memory;
    if (a.finalRegisters.size() != b.finalRegisters.size())
        return "final register sets differ in size";
    for (const auto& [name, value] : a.finalRegisters) {
        const auto it = b.finalRegisters.find(name);
        if (it == b.finalRegisters.end())
            return "register '" + name + "' missing from second state";
        if (!sameValue(value, it->second)) {
            return "register '" + name + "': " + std::to_string(value) +
                   " vs " + std::to_string(it->second);
        }
    }
    return "";
}

SimResult
runSequential(const ir::Loop& loop, const SimSpec& spec)
{
    loop.validate();
    support::check(spec.tripCount >= 0, "trip count must be non-negative");

    Memory memory(loop, spec.tripCount, spec.margin);
    for (const auto& [name, init] : spec.arrays) {
        for (ir::ArrayId array = 0; array < loop.numArrays(); ++array) {
            if (loop.arrays()[array].name == name)
                memory.init(array, init.first, init.second);
        }
    }
    if (spec.tripCount == 0)
        return SimResult{std::move(memory), {}, 0};

    RegisterFile registers(loop, spec, spec.tripCount);

    bool has_exit = false;
    for (const auto& op : loop.operations())
        has_exit = has_exit || op.opcode == ir::Opcode::kExitIf;

    int executed = 0;
    bool exited = false;
    for (int iter = 0; iter < spec.tripCount && !exited; ++iter) {
        ++executed;
        for (const auto& op : loop.operations()) {
            const bool active =
                !op.guard || isTrue(registers.readOperand(*op.guard, iter));

            if (op.opcode == ir::Opcode::kBranch)
                continue;

            if (op.opcode == ir::Opcode::kExitIf) {
                if (active &&
                    registers.readOperand(op.sources[0], iter) > 0.0) {
                    exited = true;
                    break; // the rest of this iteration does not run
                }
                continue;
            }

            if (op.isStore()) {
                if (!active)
                    continue;
                memory.write(op.memRef->array, op.memRef->stride * iter + op.memRef->offset,
                             registers.readOperand(op.sources[1], iter));
                continue;
            }

            if (!op.hasDest())
                continue;

            Value result = 0.0;
            if (active) {
                if (op.isLoad()) {
                    result = memory.read(op.memRef->array,
                                         op.memRef->stride * iter + op.memRef->offset);
                } else {
                    result = registers.compute(op, iter);
                }
            }
            registers.write(op.dest, iter, result);
        }
    }

    SimResult result{std::move(memory), {}, executed};
    if (!has_exit) {
        for (ir::RegId reg = 0; reg < loop.numRegisters(); ++reg) {
            if (loop.definingOp(reg) >= 0) {
                result.finalRegisters[loop.reg(reg).name] =
                    registers.read(reg, spec.tripCount - 1);
            }
        }
    }
    return result;
}

} // namespace ims::sim
