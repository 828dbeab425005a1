#include "sim/memory.hpp"

#include <algorithm>
#include <cassert>

#include "support/error.hpp"

namespace ims::sim {

Memory::Memory(const ir::Loop& loop, int trip_count, int margin)
    : margin_(margin), numArrays_(loop.numArrays())
{
    assert(trip_count >= 0 && margin >= 0);
    int max_stride = 1;
    for (const auto& op : loop.operations()) {
        if (op.memRef)
            max_stride = std::max(max_stride, op.memRef->stride);
    }
    arrayCells_ = static_cast<std::size_t>(trip_count) * max_stride +
                  2 * static_cast<std::size_t>(margin);
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
