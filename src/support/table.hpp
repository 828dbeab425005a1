#ifndef IMS_SUPPORT_TABLE_HPP
#define IMS_SUPPORT_TABLE_HPP

#include <cstddef>
#include <iosfwd>
#include <string>
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

} // namespace ims::support

#endif // IMS_SUPPORT_TABLE_HPP
