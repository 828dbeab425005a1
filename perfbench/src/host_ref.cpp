#include "host_ref.hpp"

#include <array>
#include <chrono>
#include <cstdint>

namespace perfbench {

namespace {

constexpr std::size_t kTextBytes = 768 * 1024;
constexpr std::uint32_t kTableWords = 1u << 16; // 256 KiB

/**
 * A fixed pseudo-random text of lower-case words, built once at start-up
 * so every reference run scans the same bytes.
 */
struct ReferenceText
{
    std::array<char, kTextBytes> bytes{};

    ReferenceText()
    {
        std::uint32_t x = 12345u;
        for (char& c : bytes) {
            x = x * 1664525u + 1013904223u;
            const std::uint32_t r = x >> 24;
            c = r % 11 == 0 ? ' ' : static_cast<char>('a' + r % 26);
        }
    }
};

const ReferenceText g_text;
std::uint32_t g_table[kTableWords];
volatile std::uint64_t g_sink = 0;

} // namespace

double
runHostReference()
{
    // Hash the text in four independent lanes and count the words of two
    // of them in a table: byte loads, data-dependent branches, multiplies
    // and scattered stores with enough independent work per cycle to be
    // slowed by a busy sibling hyperthread the way library code is.
    const auto start = std::chrono::steady_clock::now();
    for (std::uint32_t& word : g_table)
        word = 0;
    constexpr std::size_t kLane = kTextBytes / 4;
    constexpr std::uint64_t kPrime = 1099511628211ULL;
    std::uint64_t h0 = 1, h1 = 2, h2 = 3, h3 = 4;
    const char* text = g_text.bytes.data();
    for (std::size_t i = 0; i < kLane; ++i) {
        h0 = (h0 ^ static_cast<unsigned char>(text[i])) * kPrime;
        h1 = (h1 ^ static_cast<unsigned char>(text[i + kLane])) * kPrime;
        h2 = (h2 ^ static_cast<unsigned char>(text[i + 2 * kLane])) * kPrime;
        h3 = (h3 ^ static_cast<unsigned char>(text[i + 3 * kLane])) * kPrime;
        if (text[i] == ' ')
            ++g_table[h0 & (kTableWords - 1)];
        if (text[i + kLane] == ' ')
            ++g_table[h1 & (kTableWords - 1)];
    }
    g_sink = h0 ^ h1 ^ h2 ^ h3 ^ g_table[h2 & (kTableWords - 1)];
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

} // namespace perfbench
