#include "sim/value.hpp"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace ims::sim {

Value
evaluate(ir::Opcode opcode, const Value* sources, [[maybe_unused]] int count)
{
    assert(count == ir::sourceCount(opcode));
    using ir::Opcode;
    switch (opcode) {
      case Opcode::kAdd:
      case Opcode::kAddrAdd:
        return sources[0] + sources[1];
      case Opcode::kSub:
      case Opcode::kAddrSub:
        return sources[0] - sources[1];
      case Opcode::kMul:
        return sources[0] * sources[1];
      case Opcode::kDiv:
        return sources[1] != 0.0 ? sources[0] / sources[1] : 0.0;
      case Opcode::kSqrt:
        return std::sqrt(std::abs(sources[0]));
      case Opcode::kMin:
        return std::min(sources[0], sources[1]);
      case Opcode::kMax:
        return std::max(sources[0], sources[1]);
      case Opcode::kAbs:
        return std::abs(sources[0]);
      case Opcode::kCmpGt:
      case Opcode::kPredSet:
        return sources[0] > sources[1] ? 1.0 : 0.0;
      case Opcode::kPredClear:
        return 0.0;
      case Opcode::kSelect:
        return isTrue(sources[0]) ? sources[1] : sources[2];
      case Opcode::kCopy:
        return sources[0];
      default:
        assert(false && "opcode is not evaluable");
        return 0.0;
    }
}

bool
sameValue(Value a, Value b)
{
    if (a == b)
        return true;
    std::uint64_t ua = 0, ub = 0;
    std::memcpy(&ua, &a, sizeof(a));
    std::memcpy(&ub, &b, sizeof(b));
    return ua == ub;
}

} // namespace ims::sim
