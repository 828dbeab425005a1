#include "support/table.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace ims::support {

void
TextTable::addHeader(std::vector<std::string> cells)
{
    header_ = std::move(cells);
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

void
TextTable::print(std::ostream& out) const
{
    std::vector<std::size_t> widths;
    auto widen = [&widths](const std::vector<std::string>& cells) {
        if (widths.size() < cells.size())
            widths.resize(cells.size(), 0);
        for (std::size_t i = 0; i < cells.size(); ++i)
            widths[i] = std::max(widths[i], cells[i].size());
    };
    widen(header_);
    for (const auto& row : rows_)
        widen(row);

    auto print_row = [&](const std::vector<std::string>& cells) {
        out << "|";
        for (std::size_t i = 0; i < widths.size(); ++i) {
            const std::string& cell = i < cells.size() ? cells[i] : "";
            out << " " << std::left << std::setw(static_cast<int>(widths[i]))
                << cell << " |";
        }
        out << "\n";
    };
    auto print_rule = [&]() {
        out << "+";
        for (std::size_t w : widths)
            out << std::string(w + 2, '-') << "+";
        out << "\n";
    };

    if (!title_.empty())
        out << "\n== " << title_ << " ==\n";
    print_rule();
    if (!header_.empty()) {
        print_row(header_);
        print_rule();
    }
    for (const auto& row : rows_)
        print_row(row);
    print_rule();
}

std::string
formatDouble(double value, int precision)
{
    std::ostringstream out;
    out << std::fixed << std::setprecision(precision) << value;
    return out.str();
}

void
appendRoundTripDouble(std::string& out, double value)
{
    if (std::isnan(value)) {
        out += "nan";
        return;
    }
    if (std::isinf(value)) {
        out += std::signbit(value) ? "-inf" : "inf";
        return;
    }
    // std::to_chars with a precision is "%.*g" without the locale and
    // stream machinery.
    char buffer[64];
    char* end = buffer;
    for (int precision = 1; precision <= 17; ++precision) {
        end = std::to_chars(buffer, buffer + sizeof buffer - 1, value,
                            std::chars_format::general, precision)
                  .ptr;
        *end = '\0';
        const double reparsed = std::strtod(buffer, nullptr);
        if (reparsed == value &&
            std::signbit(reparsed) == std::signbit(value))
            break;
    }
    out.append(buffer, end);
}

template <>
std::optional<double>
parseNumber<double>(std::string_view text)
{
    // Only decimal spellings: strtod would also take leading blanks, hex
    // floats, "inf" and "nan".
    if (text.empty() ||
        text.find_first_not_of("0123456789+-.eE") != std::string_view::npos)
        return std::nullopt;
    const std::string terminated(text);
    char* end = nullptr;
    const double value = std::strtod(terminated.c_str(), &end);
    if (end != terminated.c_str() + terminated.size())
        return std::nullopt;
    // Overflow reads as an infinity; underflow yields the denormal (or
    // zero) that appendRoundTripDouble printed and is kept.
    if (!std::isfinite(value))
        return std::nullopt;
    return value;
}

} // namespace ims::support
