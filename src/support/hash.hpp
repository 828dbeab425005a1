#ifndef IMS_SUPPORT_HASH_HPP
#define IMS_SUPPORT_HASH_HPP

#include <array>
#include <cstdint>
#include <string_view>

namespace ims::support {

/** FNV-1a 64-bit offset basis / prime (the classic constants). */
inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/**
 * The effect of feeding a fixed text to an Fnv1a hasher, precomputed so
 * that it applies in constant time. Each FNV-1a step XORs a byte into the
 * low byte of the state and multiplies, and a multiply carries only
 * upward, so the low byte evolves on its own. The state after the text is
 * therefore an affine function of the state before it:
 *
 *     after(h) = h * prime^|text| + offset[h & 0xff]   (mod 2^64)
 *
 * Building the table runs the text once per low-byte value; applying it
 * is bit-identical to hashing the text byte by byte.
 */
class Fnv1aText
{
  public:
    /** The empty text: applying it leaves the state unchanged. */
    Fnv1aText() = default;

    explicit Fnv1aText(std::string_view text)
    {
        std::array<std::uint64_t, 256> state;
        for (std::uint64_t low = 0; low < state.size(); ++low)
            state[low] = low;
        for (const char c : text) {
            const auto byte = static_cast<unsigned char>(c);
            for (auto& hash : state)
                hash = (hash ^ byte) * kFnvPrime;
            scale_ *= kFnvPrime;
        }
        for (std::uint64_t low = 0; low < state.size(); ++low)
            offset_[low] = state[low] - low * scale_;
    }

    /** The hasher state after this text, given the state before it. */
    std::uint64_t
    apply(std::uint64_t hash) const
    {
        return hash * scale_ + offset_[hash & 0xffU];
    }

  private:
    std::uint64_t scale_ = 1;
    std::array<std::uint64_t, 256> offset_{};
};

/**
 * Incremental FNV-1a 64-bit hasher. Deterministic across platforms and
 * runs (no pointer or seed salting), which is what content-addressed
 * keys require: the same canonical text must map to the same key in
 * every process, including across a cache save/restart/load cycle.
 */
class Fnv1a
{
  public:
    Fnv1a&
    update(std::string_view text)
    {
        for (const char c : text) {
            hash_ ^= static_cast<unsigned char>(c);
            hash_ *= kFnvPrime;
        }
        return *this;
    }

    /** Same as update(text) for the text `precomputed` was built from. */
    Fnv1a&
    update(const Fnv1aText& precomputed)
    {
        hash_ = precomputed.apply(hash_);
        return *this;
    }

    Fnv1a&
    update(std::uint64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (value >> (8 * byte)) & 0xffU;
            hash_ *= kFnvPrime;
        }
        return *this;
    }

    std::uint64_t digest() const { return hash_; }

  private:
    std::uint64_t hash_ = kFnvOffsetBasis;
};

/** One-shot FNV-1a of a string. */
inline std::uint64_t
fnv1a(std::string_view text)
{
    return Fnv1a().update(text).digest();
}

} // namespace ims::support

#endif // IMS_SUPPORT_HASH_HPP
