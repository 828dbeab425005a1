#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

// Relaxed is enough: the count is read on the thread that made the
// calls being measured, and idle service workers never allocate.
std::atomic<std::uint64_t> g_allocations{0};

void*
allocate(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    if (void* p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void*
allocateAligned(std::size_t size, std::align_val_t align)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    const auto alignment = static_cast<std::size_t>(align);
    // aligned_alloc needs a size that is a multiple of the alignment.
    const std::size_t rounded =
        (size + alignment - 1) / alignment * alignment;
    if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment
                                                             : rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

namespace perfbench {

std::uint64_t
allocationCount()
{
    return g_allocations.load(std::memory_order_relaxed);
}

} // namespace perfbench

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }

void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    try {
        return allocate(size);
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}

void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    try {
        return allocate(size);
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}

void*
operator new(std::size_t size, std::align_val_t align)
{
    return allocateAligned(size, align);
}

void*
operator new[](std::size_t size, std::align_val_t align)
{
    return allocateAligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
