#ifndef IMS_SIM_SEQUENTIAL_INTERPRETER_HPP
#define IMS_SIM_SEQUENTIAL_INTERPRETER_HPP

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/loop.hpp"
#include "sim/memory.hpp"
#include "sim/value.hpp"

namespace ims::sim {

/** Input state for simulating a loop. */
struct SimSpec
{
    /**
     * Number of iterations to execute (>= 0). A zero trip count executes
     * nothing: the result is the initial memory image with no final
     * registers (every engine agrees on this, so 0-trip equivalence checks
     * exercise the "loop body never entered" paths).
     */
    int tripCount = 16;
    /** Memory margin on both sides of [0, tripCount) (see Memory). */
    int margin = 8;
    /**
     * Values of live-in registers (loop invariants); also the fallback
     * seed for recurrence registers without explicit seeds.
     */
    std::map<std::string, Value> liveIn;
    /**
     * Pre-loop values of recurrence registers: seeds[name][k] is the value
     * the register "had" at iteration -1-k (so seeds[name][0] is the value
     * one iteration before the first).
     */
    std::map<std::string, std::vector<Value>> seeds;
    /** Initial array contents: name -> (first logical index, values). */
    std::map<std::string, std::pair<int, std::vector<Value>>> arrays;
};

/** Final architectural state after simulating a loop. */
struct SimResult
{
    Memory memory;
    /**
     * Final (last executed iteration) value of every register, indexed
     * by ir::RegId; live-ins hold 0. Left empty for zero trips and for
     * loops containing early exits (kExitIf): post-exit registers are
     * speculative and engine-dependent, so equivalence for such loops is
     * judged on memory and the exit point.
     */
    std::vector<Value> finalRegisters;
    /**
     * Iterations entered: the trip count for DO-loops, or E + 1 when an
     * early exit fired in iteration E.
     */
    int executedIterations = 0;
    /**
     * The loop that ran, which names the registers; it must outlive the
     * result (null only for a default-constructed one).
     */
    const ir::Loop* loop = nullptr;

    /**
     * Final value of the register named `name`, or nullopt when it is not
     * defined in-loop or there are no final registers.
     */
    std::optional<Value> finalRegister(std::string_view name) const;
};

/**
 * A SimSpec bound to one loop's ids, once per trip count: the sequential
 * reference and the pipelined engine both start from it.
 */
struct InitialState
{
    int tripCount = 0;
    /** Per register; 0 where the spec names none. */
    std::vector<Value> liveIn;
    /** Register r's seeds are seeds[seedFirst[r] .. + seedCount[r]). */
    std::vector<Value> seeds;
    std::vector<int> seedFirst;
    std::vector<int> seedCount;
    Memory memory;
};

/**
 * @throws support::Error on a negative trip count, or initial array
 *         contents outside the simulated bounds.
 */
InitialState bindSpec(const ir::Loop& loop, const SimSpec& spec);

/**
 * NaN-tolerant equivalence between two final states of one loop (same
 * arrays, same registers, every value equal by sim::sameValue). The
 * canonical check that a pipelined execution preserved the loop's
 * semantics.
 */
bool equivalent(const SimResult& a, const SimResult& b);

/**
 * Human-readable description of the first difference between two final
 * states of one loop ("" when equivalent): executed-iteration counts,
 * memory contents, then register values, compared by id. Of several
 * differing registers, the one first in name order is reported. Used by
 * the sim-equivalence oracle to produce actionable diagnostics.
 */
std::string describeDifference(const SimResult& a, const SimResult& b);

/**
 * Reference semantics: execute the loop iteration by iteration, operations
 * in program order. Guarded operations whose predicate is false perform no
 * store and write 0.0 to their destination (the pipelined engine shares
 * this rule, making cross-engine comparison exact).
 *
 * @throws support::Error if an operation reads a same-iteration value
 *         whose definition appears later in program order (bodies must be
 *         listed in intra-iteration topological order).
 */
SimResult runSequential(const ir::Loop& loop, const SimSpec& spec);

/** runSequential from an already bound state. @pre loop.validate() passes. */
SimResult runSequential(const ir::Loop& loop, const InitialState& initial);

} // namespace ims::sim

#endif // IMS_SIM_SEQUENTIAL_INTERPRETER_HPP
