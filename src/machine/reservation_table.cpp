#include "machine/reservation_table.hpp"

#include <algorithm>
#include <cassert>

namespace ims::machine {

ReservationTable::ReservationTable(std::vector<ResourceUse> uses)
    : uses_(std::move(uses))
{
    normalize();
}

void
ReservationTable::normalize()
{
    std::sort(uses_.begin(), uses_.end(),
              [](const ResourceUse& a, const ResourceUse& b) {
                  return a.time != b.time ? a.time < b.time
                                          : a.resource < b.resource;
              });
    uses_.erase(std::unique(uses_.begin(), uses_.end()), uses_.end());
}

void
ReservationTable::addUse(int time, ResourceId resource)
{
    assert(time >= 0);
    uses_.push_back(ResourceUse{time, resource});
    normalize();
}

void
ReservationTable::addBlockUse(int from, int to, ResourceId resource)
{
    assert(from >= 0 && from <= to);
    for (int t = from; t <= to; ++t)
        uses_.push_back(ResourceUse{t, resource});
    normalize();
}

int
ReservationTable::length() const
{
    int max_time = -1;
    for (const auto& use : uses_)
        max_time = std::max(max_time, use.time);
    return max_time + 1;
}

TableKind
ReservationTable::kind() const
{
    if (uses_.empty())
        return TableKind::kSimple; // pseudo-ops: vacuously simple
    const ResourceId resource = uses_.front().resource;
    bool single_resource = true;
    for (const auto& use : uses_)
        single_resource = single_resource && use.resource == resource;
    if (!single_resource)
        return TableKind::kComplex;
    // uses_ is sorted by time and de-duplicated; consecutive-from-zero?
    for (std::size_t i = 0; i < uses_.size(); ++i) {
        if (uses_[i].time != static_cast<int>(i))
            return TableKind::kComplex;
    }
    return uses_.size() == 1 ? TableKind::kSimple : TableKind::kBlock;
}

bool
ReservationTable::collidesWith(const ReservationTable& other, int delta) const
{
    for (const auto& mine : uses_) {
        for (const auto& theirs : other.uses()) {
            if (mine.resource == theirs.resource &&
                mine.time + delta == theirs.time) {
                return true;
            }
        }
    }
    return false;
}

LinearScheduleTable::LinearScheduleTable(int num_resources)
    : wordsPerCycle_(std::max(1, (num_resources + 63) / 64))
{
    assert(num_resources >= 0);
}

void
LinearScheduleTable::reserve(const ReservationTable& table, int time)
{
    for (const auto& use : table.uses()) {
        const int cycle = time + use.time;
        assert(cycle >= 0);
        if (cycle >= span_) {
            span_ = cycle + 1;
            bits_.resize(static_cast<std::size_t>(span_) * wordsPerCycle_);
        }
        std::uint64_t& word = bits_[wordOf(cycle, use.resource)];
        const std::uint64_t bit = std::uint64_t{1} << (use.resource % 64);
        assert((word & bit) == 0);
        word |= bit;
    }
}

std::string
tableKindName(TableKind kind)
{
    switch (kind) {
      case TableKind::kSimple:
        return "simple";
      case TableKind::kBlock:
        return "block";
      case TableKind::kComplex:
        return "complex";
    }
    return "?";
}

} // namespace ims::machine
