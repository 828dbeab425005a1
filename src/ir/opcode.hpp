#ifndef IMS_IR_OPCODE_HPP
#define IMS_IR_OPCODE_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace ims::ir {

/**
 * Operation repertoire of the loop IR.
 *
 * The set mirrors the operation classes of the paper's Table 2 machine
 * model (memory ports, address ALUs, adder, multiplier, instruction unit)
 * plus the pseudo-operations START/STOP that iterative modulo scheduling
 * adds to the dependence graph (§3.1), and a few generic data ops (copy,
 * select, compare) that IF-converted loop bodies need.
 */
enum class Opcode : std::uint8_t
{
    // Memory-port operations.
    kLoad,      ///< Load from an array element.
    kStore,     ///< Store to an array element.
    kPredSet,   ///< Compare-and-set-predicate (IF-conversion guard def).
    kPredClear, ///< Clear a predicate.

    // Address ALU operations.
    kAddrAdd, ///< Address/integer add on the address ALU.
    kAddrSub, ///< Address/integer subtract on the address ALU.

    // Adder (integer/floating-point ALU) operations.
    kAdd,    ///< Add.
    kSub,    ///< Subtract.
    kMin,    ///< Minimum.
    kMax,    ///< Maximum.
    kAbs,    ///< Absolute value.
    kCmpGt,  ///< Compare greater-than (data result 0/1).
    kSelect, ///< Select(pred_value, a, b) merge after IF-conversion.
    kCopy,   ///< Register move.

    // Multiplier pipeline operations.
    kMul,  ///< Multiply.
    kDiv,  ///< Divide.
    kSqrt, ///< Square root.

    // Instruction-unit operations.
    kBranch, ///< Loop-closing branch (BRTOP-style).
    kExitIf, ///< Early exit: leaves the loop when its operand is > 0
             ///< (WHILE-loops / loops with early exits, §5).

    // Scheduling pseudo-operations (never appear in loop bodies).
    kStart, ///< Predecessor of every operation in the dependence graph.
    kStop,  ///< Successor of every operation in the dependence graph.
};

/** Number of real (non-pseudo) opcodes; pseudo ops sort after these. */
inline constexpr int kNumRealOpcodes = static_cast<int>(Opcode::kExitIf) + 1;

/** Total number of opcodes including the pseudo-operations. */
inline constexpr int kNumOpcodes = static_cast<int>(Opcode::kStop) + 1;

/** Mnemonic for an opcode (e.g. "load", "addradd"). */
std::string opcodeName(Opcode opcode);

/** Inverse of opcodeName; empty if the mnemonic is unknown. */
std::optional<Opcode> opcodeFromName(std::string_view name);

/** True for kStart/kStop. */
bool isPseudo(Opcode opcode);

/** True for kLoad/kStore: operations that carry a memory reference. */
bool accessesMemory(Opcode opcode);

/** True if the opcode writes a result register. */
bool definesRegister(Opcode opcode);

/** True if the opcode's result is a predicate register. */
bool definesPredicate(Opcode opcode);

/** Number of register/immediate source operands the opcode expects. */
int sourceCount(Opcode opcode);

/** The largest sourceCount of any opcode (select: condition, a, b). */
inline constexpr int kMaxSources = 3;

} // namespace ims::ir

#endif // IMS_IR_OPCODE_HPP
