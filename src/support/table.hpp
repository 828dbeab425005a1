#ifndef IMS_SUPPORT_TABLE_HPP
#define IMS_SUPPORT_TABLE_HPP

#include <charconv>
#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace ims::support {

/**
 * Minimal fixed-column text table used by the benchmark harnesses to print
 * paper-style tables (Table 3, Table 4, Figure 6 series) to stdout.
 *
 * Columns are sized to their widest cell; the first row added with
 * `addHeader` is separated from the body by a rule.
 */
class TextTable
{
  public:
    /** Create a table titled `title` (printed above the table). */
    explicit TextTable(std::string title) : title_(std::move(title)) {}

    /** Set the header row. */
    void addHeader(std::vector<std::string> cells);

    /** Append a body row. */
    void addRow(std::vector<std::string> cells);

    /** Render to `out` with column alignment and rules. */
    void print(std::ostream& out) const;

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format `value` with `precision` digits after the decimal point. */
std::string formatDouble(double value, int precision = 2);

/**
 * Append the shortest decimal form of `value` that round-trips through
 * strtod: printf's "%.*g" at the least precision that reparses exactly.
 *
 * The output is a pure function of the value with exactly one spelling
 * per value, which the content-addressed schedule cache keys on. NaN
 * collapses to "nan" regardless of sign bit or payload (printf would emit
 * "-nan" for negative NaNs on glibc), infinities to "inf"/"-inf", and the
 * signbit check keeps "-0" distinct from "0".
 */
void appendRoundTripDouble(std::string& out, double value);

/**
 * Parse all of `text` as a T, or nullopt. Integers go through
 * std::from_chars, so leading blanks, a '+', trailing characters, a '-'
 * for an unsigned T and out-of-range values are all rejected. Doubles go
 * through strtod, the reader appendRoundTripDouble is paired with: every
 * finite value it prints parses back, denormals ("5e-324") included.
 * Only finite decimal spellings are accepted: leading blanks, trailing
 * characters, hex floats, "inf", "nan" and overflow ("1e999") are
 * rejected.
 */
template <class T>
std::optional<T>
parseNumber(std::string_view text)
{
    static_assert(std::is_integral_v<T>);
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return value;
}

template <>
std::optional<double> parseNumber<double>(std::string_view text);

} // namespace ims::support

#endif // IMS_SUPPORT_TABLE_HPP
