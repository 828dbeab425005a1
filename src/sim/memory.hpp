#ifndef IMS_SIM_MEMORY_HPP
#define IMS_SIM_MEMORY_HPP

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "ir/loop.hpp"
#include "sim/value.hpp"

namespace ims::sim {

/**
 * Array shape of one loop simulation. The workload input generator, the
 * program executor and Memory all size arrays by memoryShape, so a loop
 * sees the same cells whichever of them set it up.
 */
struct MemoryShape
{
    /** Elements on each side of [0, trip count), for reads before the
        first iteration (a[i-1] at i = 0) and past the last. */
    int margin = 0;
    /** Largest access stride (at least 1). */
    int stride = 1;
    /** Cells per array from logical index -margin:
        stride * trip count + 2 * margin. */
    std::size_t cells = 0;
};

/**
 * The memory shape for simulating `loop` for `trip_count` iterations,
 * with `margin` when given and otherwise the default margin
 * max(8, max |offset| + maxDistance + 2).
 */
MemoryShape memoryShape(const ir::Loop& loop, int trip_count,
                        std::optional<int> margin = std::nullopt);

/**
 * Array storage for loop simulation. Accesses are to logical indices
 * i + offset where i is the iteration number; negative indices (reads of
 * elements "before" the loop, e.g. a[i-1] at i = 0) land in a margin
 * region initialised along with the array.
 */
class Memory
{
  public:
    /**
     * @param loop       declares the array symbols.
     * @param trip_count number of iterations to be simulated.
     * @param margin     extra elements on both sides of [0, trip_count);
     *                   the arrays have memoryShape's cells.
     */
    Memory(const ir::Loop& loop, int trip_count, int margin);

    Value read(ir::ArrayId array, int index) const;
    void write(ir::ArrayId array, int index, Value value);

    /** Logical elements [from, from + count). */
    std::vector<Value> snapshot(ir::ArrayId array, int from,
                                int count) const;

    /** Exact content equality with another Memory of identical shape. */
    bool operator==(const Memory& other) const;

    /**
     * Description of the first differing cell ("array 2 logical index -1:
     * 0.5 vs 1.5"), or "" when equal. Shape mismatches are reported as
     * such. NaN-tolerant like operator== (bit-identical NaNs are equal).
     */
    std::string firstDifference(const Memory& other) const;

  private:
    std::size_t cellIndex(ir::ArrayId array, int index) const;

    int margin_;
    int numArrays_;
    /** Cells per array; array a owns cells_[a * arrayCells_, ...). */
    std::size_t arrayCells_;
    std::vector<Value> cells_;
};

} // namespace ims::sim

#endif // IMS_SIM_MEMORY_HPP
