#ifndef IMS_MACHINE_RESERVATION_TABLE_HPP
#define IMS_MACHINE_RESERVATION_TABLE_HPP

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ims::machine {

/** Index of a machine resource (pipeline stage, bus, instruction field). */
using ResourceId = int;

/** One resource reservation, `time` cycles after issue of the operation. */
struct ResourceUse
{
    int time = 0;
    ResourceId resource = 0;

    friend bool
    operator==(const ResourceUse& a, const ResourceUse& b)
    {
        return a.time == b.time && a.resource == b.resource;
    }
};

/**
 * Classification of reservation tables from §2.1 of the paper:
 *  - Simple:  a single resource for a single cycle at issue time.
 *  - Block:   a single resource for multiple consecutive cycles from issue.
 *  - Complex: anything else.
 * Block and complex tables cause increasing difficulty for the scheduler
 * and motivate the iterative (backtracking) algorithm.
 */
enum class TableKind { kSimple, kBlock, kComplex };

/**
 * Reservation table for one alternative of one opcode: the set of
 * (relative time, resource) pairs the operation occupies, as in Figure 1
 * of the paper.
 */
class ReservationTable
{
  public:
    ReservationTable() = default;

    /** Construct from a list of uses (normalised: sorted, de-duplicated). */
    explicit ReservationTable(std::vector<ResourceUse> uses);

    /** Reserve `resource` at relative `time` (>= 0). */
    void addUse(int time, ResourceId resource);

    /** Reserve `resource` over [from, to] inclusive. */
    void addBlockUse(int from, int to, ResourceId resource);

    const std::vector<ResourceUse>& uses() const { return uses_; }

    bool empty() const { return uses_.empty(); }

    /** One past the last cycle with a reservation (0 if empty). */
    int length() const;

    /** Classify per §2.1. */
    TableKind kind() const;

    /**
     * True if issuing this table at relative offset `delta` after another
     * issue of `other` collides on some resource (used in tests to
     * reproduce the Figure 1 add/multiply collision analysis).
     */
    bool collidesWith(const ReservationTable& other, int delta) const;

  private:
    void normalize();

    std::vector<ResourceUse> uses_;
};

/**
 * Linear (non-modulo) schedule reservation table: one bit per (absolute
 * cycle, resource), grown on demand. This is §3.1's "regular, linear
 * schedule reservation table", over which FindTimeSlot degenerates to
 * list scheduling; the acyclic list scheduler and the program
 * compiler's block-occupancy checks both reserve into it.
 */
class LinearScheduleTable
{
  public:
    explicit LinearScheduleTable(int num_resources);

    /** True if issuing `table` at cycle `time` hits a reserved cell. */
    bool
    conflicts(const ReservationTable& table, int time) const
    {
        for (const auto& use : table.uses()) {
            if (taken(time + use.time, use.resource))
                return true;
        }
        return false;
    }

    /** Reserve every cell of `table` issued at cycle `time` (>= 0); the
        cells must be free. */
    void reserve(const ReservationTable& table, int time);

    /** True if `resource` is reserved at `cycle`; cycles outside
        [0, cycleSpan()) are free. */
    bool
    taken(int cycle, ResourceId resource) const
    {
        if (cycle < 0 || cycle >= span_)
            return false;
        const std::size_t word = wordOf(cycle, resource);
        return ((bits_[word] >> (resource % 64)) & 1) != 0;
    }

    /** One past the latest reserved cycle (0 when nothing is reserved). */
    int cycleSpan() const { return span_; }

  private:
    std::size_t
    wordOf(int cycle, ResourceId resource) const
    {
        assert(resource >= 0 && resource / 64 < wordsPerCycle_);
        return static_cast<std::size_t>(cycle) * wordsPerCycle_ +
               static_cast<std::size_t>(resource / 64);
    }

    int wordsPerCycle_;
    int span_ = 0;
    /** Cycle c's resource bits are words [c * wordsPerCycle_, ...). */
    std::vector<std::uint64_t> bits_;
};

/** Name for a TableKind ("simple" / "block" / "complex"). */
std::string tableKindName(TableKind kind);

} // namespace ims::machine

#endif // IMS_MACHINE_RESERVATION_TABLE_HPP
