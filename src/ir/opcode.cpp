#include "ir/opcode.hpp"

#include <array>
#include <cassert>
#include <utility>

namespace ims::ir {

namespace {

struct OpcodeDescriptor
{
    Opcode opcode;
    const char* name;
    int sources;
    bool definesReg;
    bool definesPred;
    bool memory;
    bool pseudo;
};

constexpr std::array<OpcodeDescriptor, 21> kDescriptors = {{
    {Opcode::kLoad, "load", 1, true, false, true, false},
    {Opcode::kStore, "store", 2, false, false, true, false},
    {Opcode::kPredSet, "predset", 2, true, true, false, false},
    {Opcode::kPredClear, "predclear", 0, true, true, false, false},
    {Opcode::kAddrAdd, "aadd", 2, true, false, false, false},
    {Opcode::kAddrSub, "asub", 2, true, false, false, false},
    {Opcode::kAdd, "add", 2, true, false, false, false},
    {Opcode::kSub, "sub", 2, true, false, false, false},
    {Opcode::kMin, "min", 2, true, false, false, false},
    {Opcode::kMax, "max", 2, true, false, false, false},
    {Opcode::kAbs, "abs", 1, true, false, false, false},
    {Opcode::kCmpGt, "cmpgt", 2, true, false, false, false},
    {Opcode::kSelect, "select", 3, true, false, false, false},
    {Opcode::kCopy, "copy", 1, true, false, false, false},
    {Opcode::kMul, "mul", 2, true, false, false, false},
    {Opcode::kDiv, "div", 2, true, false, false, false},
    {Opcode::kSqrt, "sqrt", 1, true, false, false, false},
    {Opcode::kBranch, "branch", 1, false, false, false, false},
    {Opcode::kExitIf, "exitif", 1, false, false, false, false},
    {Opcode::kStart, "start", 0, false, false, false, true},
    {Opcode::kStop, "stop", 0, false, false, false, true},
}};

/** The table is indexed by the enum value; every row sits at its own. */
constexpr bool
tableInEnumOrder()
{
    for (std::size_t k = 0; k < kDescriptors.size(); ++k) {
        if (static_cast<std::size_t>(kDescriptors[k].opcode) != k)
            return false;
    }
    return true;
}
static_assert(tableInEnumOrder());

constexpr bool
sourcesWithinBound()
{
    for (const auto& d : kDescriptors) {
        if (d.sources > kMaxSources)
            return false;
    }
    return true;
}
static_assert(sourcesWithinBound());

const OpcodeDescriptor&
descriptor(Opcode opcode)
{
    const auto index = static_cast<std::size_t>(opcode);
    assert(index < kDescriptors.size() && "unknown opcode");
    return kDescriptors[index];
}

} // namespace

std::string
opcodeName(Opcode opcode)
{
    return descriptor(opcode).name;
}

std::optional<Opcode>
opcodeFromName(std::string_view name)
{
    for (const auto& d : kDescriptors) {
        if (name == d.name)
            return d.opcode;
    }
    return std::nullopt;
}

bool
isPseudo(Opcode opcode)
{
    return descriptor(opcode).pseudo;
}

bool
accessesMemory(Opcode opcode)
{
    return descriptor(opcode).memory;
}

bool
definesRegister(Opcode opcode)
{
    return descriptor(opcode).definesReg;
}

bool
definesPredicate(Opcode opcode)
{
    return descriptor(opcode).definesPred;
}

int
sourceCount(Opcode opcode)
{
    return descriptor(opcode).sources;
}

} // namespace ims::ir
