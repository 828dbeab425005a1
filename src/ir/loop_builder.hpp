#ifndef IMS_IR_LOOP_BUILDER_HPP
#define IMS_IR_LOOP_BUILDER_HPP

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "ir/loop.hpp"

namespace ims::ir {

/**
 * Convenience builder for Loop bodies.
 *
 * Registers and arrays are created on first mention by name; `reg("x")`
 * returns an operand reading x from this iteration and `reg("x", 1)` from
 * the previous one. The finished loop is validated before being returned.
 *
 * Example (daxpy-like body):
 * @code
 *   LoopBuilder b("daxpy");
 *   b.liveIn("a");
 *   b.recurrence("ax");  // address live-in updated every iteration
 *   b.op(Opcode::kAddrAdd, "ax", {b.reg("ax", 1), b.imm(8)});
 *   b.load("xv", "X", 0, b.reg("ax"));
 *   ...
 *   Loop loop = b.build();
 * @endcode
 */
class LoopBuilder
{
  public:
    explicit LoopBuilder(std::string name);

    /** Declare a live-in (loop-invariant or recurrence seed) register. */
    LoopBuilder& liveIn(const std::string& name, bool predicate = false);

    /**
     * Declare a register that is read at distance >= 1 before being defined
     * in program order (a recurrence); identical to liveIn and provided
     * only for readability at call sites.
     */
    LoopBuilder& recurrence(const std::string& name);

    /** Operand reading register `name` from `distance` iterations back. */
    Operand reg(std::string_view name, int distance = 0);

    /** Immediate operand. */
    Operand imm(double value);

    /**
     * Append a generic operation. `dest` may be "" for result-less opcodes.
     * Returns the operation id.
     */
    OpId op(Opcode opcode, const std::string& dest,
            std::vector<Operand> sources, const std::string& comment = "");

    /** Append a guarded operation (IF-converted). */
    OpId opIf(Opcode opcode, const std::string& dest,
              std::vector<Operand> sources, const Operand& guard,
              const std::string& comment = "");

    /**
     * Append a load of array[stride*i + offset] with the given address
     * operand.
     */
    OpId load(const std::string& dest, const std::string& array, int offset,
              const Operand& address, const std::string& comment = "",
              int stride = 1);

    /** Append a store of `value` to array[stride*i + offset]. */
    OpId store(const std::string& array, int offset, const Operand& address,
               const Operand& value, const std::string& comment = "",
               int stride = 1);

    /** Guarded variants of load/store. */
    OpId loadIf(const std::string& dest, const std::string& array, int offset,
                const Operand& address, const Operand& guard,
                int stride = 1);
    OpId storeIf(const std::string& array, int offset, const Operand& address,
                 const Operand& value, const Operand& guard,
                 int stride = 1);

    /**
     * Append an early-exit operation: the loop leaves after this point of
     * iteration i when `condition` > 0 (WHILE-loops / early exits, §5).
     */
    OpId exitIf(const Operand& condition, const std::string& comment = "");

    /**
     * Append the canonical loop-control tail: the trip-count decrement
     * `n = asub n[1] - 1` and the loop-closing branch reading n. Most
     * kernels call this last. `counter` must be declared live-in first
     * (done automatically).
     */
    void closeLoop(const std::string& counter = "n");

    /**
     * Back-substituted variant of closeLoop (the form the paper's input
     * comes in after "recurrence back-substitution", §4.1): the decrement
     * reads the counter from `factor` iterations back and subtracts
     * `factor`, so the recurrence constrains the II by only
     * ceil(latency / factor) instead of the full address-ALU latency.
     */
    void closeLoopBackSubstituted(const std::string& counter = "n",
                                  int factor = 3);

    /**
     * Capacity hint: the loop will hold about `symbols` operations and as
     * many registers.
     */
    void reserve(int symbols);

    /** Finalize: validate and return the loop (builder becomes empty). */
    Loop build();

  private:
    RegId ensureRegister(const std::string& name, bool predicate,
                         bool live_in);
    ArrayId ensureArray(const std::string& name);
    /** Attach a pending guard-aware operation. */
    OpId append(Operation operation);

    /**
     * Open-addressed index from a symbol name to its id. It holds ids
     * only and compares against the names the loop already stores, so a
     * lookup builds no key string and an insert allocates only when the
     * table doubles.
     */
    class SymbolIndex
    {
      public:
        /** Id of the symbol called `name` in `symbols`, or -1. */
        template <typename Symbol>
        int
        find(std::string_view name, const std::vector<Symbol>& symbols) const
        {
            if (slots_.empty())
                return -1;
            for (std::size_t k = slotOf(name);; k = next(k)) {
                const int id = slots_[k];
                if (id < 0 || symbols[id].name == name)
                    return id;
            }
        }

        /** Index the newest symbol, `symbols.back()`. */
        template <typename Symbol>
        void
        addLast(const std::vector<Symbol>& symbols)
        {
            const int count = static_cast<int>(symbols.size());
            if (2 * count > static_cast<int>(slots_.size())) {
                slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()),
                              -1);
                for (int id = 0; id + 1 < count; ++id)
                    place(id, symbols[id].name);
            }
            place(count - 1, symbols.back().name);
        }

      private:
        std::size_t
        slotOf(std::string_view name) const
        {
            return std::hash<std::string_view>{}(name) & (slots_.size() - 1);
        }

        std::size_t
        next(std::size_t k) const
        {
            return (k + 1) & (slots_.size() - 1);
        }

        void
        place(int id, std::string_view name)
        {
            std::size_t k = slotOf(name);
            while (slots_[k] >= 0)
                k = next(k);
            slots_[k] = id;
        }

        std::vector<int> slots_; // power-of-two size; -1 marks empty
    };

    Loop loop_;
    SymbolIndex registerIndex_;
    SymbolIndex arrayIndex_;
};

} // namespace ims::ir

#endif // IMS_IR_LOOP_BUILDER_HPP
