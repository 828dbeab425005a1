#include "sim/memory.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "support/error.hpp"

namespace ims::sim {

MemoryShape
memoryShape(const ir::Loop& loop, int trip_count, std::optional<int> margin)
{
    MemoryShape shape;
    int max_offset = 0;
    for (const auto& op : loop.operations()) {
        if (op.memRef) {
            max_offset = std::max(max_offset, std::abs(op.memRef->offset));
            shape.stride = std::max(shape.stride, op.memRef->stride);
        }
    }
    shape.margin = margin ? *margin
                          : std::max(8, max_offset + loop.maxDistance() + 2);
    shape.cells = static_cast<std::size_t>(trip_count) * shape.stride +
                  2 * static_cast<std::size_t>(shape.margin);
    return shape;
}

Memory::Memory(const ir::Loop& loop, int trip_count, int margin)
    : margin_(margin),
      numArrays_(loop.numArrays()),
      arrayCells_(memoryShape(loop, trip_count, margin).cells)
{
    assert(trip_count >= 0 && margin >= 0);
    cells_.assign(arrayCells_ * numArrays_, 0.0);
}

std::size_t
Memory::cellIndex(ir::ArrayId array, int index) const
{
    assert(array >= 0 && array < numArrays_);
    const long long cell = static_cast<long long>(index) + margin_;
    support::check(cell >= 0 && cell < static_cast<long long>(arrayCells_),
                   [&] {
                       return "array access out of simulated bounds (index " +
                              std::to_string(index) + "); increase the margin";
                   });
    return array * arrayCells_ + static_cast<std::size_t>(cell);
}

Value
Memory::read(ir::ArrayId array, int index) const
{
    return cells_[cellIndex(array, index)];
}

void
Memory::write(ir::ArrayId array, int index, Value value)
{
    cells_[cellIndex(array, index)] = value;
}

std::vector<Value>
Memory::snapshot(ir::ArrayId array, int from, int count) const
{
    std::vector<Value> result;
    result.reserve(count);
    for (int k = 0; k < count; ++k)
        result.push_back(read(array, from + k));
    return result;
}

bool
Memory::operator==(const Memory& other) const
{
    return firstDifference(other).empty();
}

std::string
Memory::firstDifference(const Memory& other) const
{
    if (margin_ != other.margin_ || numArrays_ != other.numArrays_ ||
        arrayCells_ != other.arrayCells_) {
        return "memory shapes differ";
    }
    for (std::size_t k = 0; k < cells_.size(); ++k) {
        if (!sameValue(cells_[k], other.cells_[k])) {
            const std::size_t array = k / arrayCells_;
            const long long logical =
                static_cast<long long>(k % arrayCells_) - margin_;
            return "array " + std::to_string(array) + " logical index " +
                   std::to_string(logical) + ": " +
                   std::to_string(cells_[k]) + " vs " +
                   std::to_string(other.cells_[k]);
        }
    }
    return "";
}

} // namespace ims::sim
