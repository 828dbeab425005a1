#ifndef PERFBENCH_ALLOC_COUNT_HPP
#define PERFBENCH_ALLOC_COUNT_HPP

#include <cstdint>

namespace perfbench {

/**
 * Number of global `operator new` calls (every form: scalar, array,
 * aligned, nothrow) made by this process so far. The benchmark binary
 * replaces the global allocation functions to count them; the counter
 * is exact, so a difference across a timed call is the call's
 * allocation count.
 */
std::uint64_t allocationCount();

} // namespace perfbench

#endif // PERFBENCH_ALLOC_COUNT_HPP
