#include "sim/sequential_interpreter.hpp"

#include "sim/register_file.hpp"
#include "support/error.hpp"

namespace ims::sim {

bool
equivalent(const SimResult& a, const SimResult& b)
{
    return describeDifference(a, b).empty();
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

InitialState
bindSpec(const ir::Loop& loop, const SimSpec& spec)
{
    support::check(spec.tripCount >= 0, "trip count must be non-negative");
    const auto regs = static_cast<std::size_t>(loop.numRegisters());
    InitialState state{spec.tripCount, std::vector<Value>(regs), {},
                       std::vector<int>(regs), std::vector<int>(regs),
                       Memory(loop, spec.tripCount, spec.margin)};
    for (ir::RegId reg = 0; reg < loop.numRegisters(); ++reg) {
        const auto& name = loop.reg(reg).name;
        if (auto it = spec.liveIn.find(name); it != spec.liveIn.end())
            state.liveIn[reg] = it->second;
        if (auto it = spec.seeds.find(name); it != spec.seeds.end()) {
            state.seedFirst[reg] = static_cast<int>(state.seeds.size());
            state.seedCount[reg] = static_cast<int>(it->second.size());
            state.seeds.insert(state.seeds.end(), it->second.begin(),
                               it->second.end());
        }
    }
    for (ir::ArrayId array = 0; array < loop.numArrays(); ++array) {
        const auto it = spec.arrays.find(loop.arrays()[array].name);
        if (it == spec.arrays.end())
            continue;
        const auto& [first, contents] = it->second;
        for (int k = 0; k < static_cast<int>(contents.size()); ++k)
            state.memory.write(array, first + k, contents[k]);
    }
    return state;
}

SimResult
runSequential(const ir::Loop& loop, const SimSpec& spec)
{
    loop.validate();
    return runSequential(loop, bindSpec(loop, spec));
}

SimResult
runSequential(const ir::Loop& loop, const InitialState& initial)
{
    Memory memory = initial.memory;
    RegisterFile registers(loop, initial);

    int executed = 0;
    bool exited = false;
    for (int iter = 0; iter < initial.tripCount && !exited; ++iter) {
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
                    Value sources[ir::kMaxSources];
                    int count = 0;
                    for (const auto& src : op.sources)
                        sources[count++] = registers.readOperand(src, iter);
                    result = evaluate(op.opcode, sources, count);
                }
            }
            registers.write(op.dest, iter, result);
        }
    }
    return SimResult{std::move(memory), registers.finalRegisters(), executed};
}

} // namespace ims::sim
