#ifndef IMS_SIM_VALUE_HPP
#define IMS_SIM_VALUE_HPP

#include "ir/opcode.hpp"

namespace ims::sim {

/**
 * All simulated values are doubles; predicates use 0.0 / 1.0. The two
 * execution engines (sequential interpreter and pipeline simulator) share
 * these semantics so that result comparison is meaningful.
 */
using Value = double;

/**
 * Evaluate a non-memory, non-branch opcode over its source values:
 *   add/sub/mul/div/aadd/asub  -- arithmetic
 *   min/max/abs                -- as named
 *   sqrt                       -- square root of |x| (total function)
 *   cmpgt / predset            -- (a > b) ? 1 : 0
 *   predclear                  -- 0
 *   select                     -- c != 0 ? a : b (sources are c, a, b)
 *   copy                       -- identity
 *
 * The engines gather operands into a stack buffer of ir::kMaxSources, so
 * evaluating an operation allocates nothing.
 *
 * @pre count == sourceCount(opcode); opcode is evaluable.
 */
Value evaluate(ir::Opcode opcode, const Value* sources, int count);

/** Truthiness of a predicate value. */
inline bool
isTrue(Value value)
{
    return value != 0.0;
}

/**
 * Value equality for state comparison: numerically equal, or identical
 * bit patterns (so NaNs produced identically by both execution engines
 * compare equal — overflowing recurrences are legal inputs).
 */
bool sameValue(Value a, Value b);

} // namespace ims::sim

#endif // IMS_SIM_VALUE_HPP
