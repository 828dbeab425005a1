#include "ir/parser.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string_view>
#include <vector>

#include "ir/loop_builder.hpp"
#include "support/error.hpp"
#include "support/table.hpp"

namespace ims::ir {

namespace {

constexpr auto npos = std::string_view::npos;

/** The characters `std::istream >> word` splits on in the "C" locale. */
bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
}

/** Strip the trailing ';' comment, then leading/trailing blanks. */
std::string_view
cleanLine(std::string_view line)
{
    // ';' starts a comment ('#' cannot: it introduces immediates).
    line = line.substr(0, line.find(';'));
    const auto first = line.find_first_not_of(" \t\r");
    if (first == npos)
        return {};
    const auto last = line.find_last_not_of(" \t\r");
    return line.substr(first, last - first + 1);
}

/** Replace `words` with the whitespace-separated words of `text`. */
void
splitWords(std::string_view text, std::vector<std::string_view>& words)
{
    words.clear();
    std::size_t pos = 0;
    while (pos < text.size()) {
        while (pos < text.size() && isSpace(text[pos]))
            ++pos;
        const std::size_t start = pos;
        while (pos < text.size() && !isSpace(text[pos]))
            ++pos;
        if (pos > start)
            words.push_back(text.substr(start, pos - start));
    }
}

[[noreturn]] void
fail(int line_no, const std::string& message)
{
    throw support::Error("line " + std::to_string(line_no) + ": " + message);
}

/** strtod of the whole `literal`, or nothing if it is not all number. */
std::optional<double>
parseImmediate(std::string_view literal)
{
    // strtod needs a terminated string. Every literal the printer emits
    // fits the stack buffer; longer ones are copied to the heap.
    char buffer[64];
    std::string long_literal;
    const char* start = buffer;
    if (literal.size() < sizeof buffer) {
        std::memcpy(buffer, literal.data(), literal.size());
        buffer[literal.size()] = '\0';
    } else {
        long_literal.assign(literal);
        start = long_literal.c_str();
    }
    // strtod instead of std::stod: stod throws out_of_range for denormals
    // (e.g. "5e-324"), which the printer emits for subnormal immediates;
    // strtod returns the rounded value, keeping print -> parse lossless.
    char* end = nullptr;
    const double value = std::strtod(start, &end);
    if (end == start || *end != '\0')
        return std::nullopt;
    return value;
}

/** Parse "name" or "name[d]" into (name, distance). */
std::pair<std::string_view, int>
parseRegRef(std::string_view token, int line_no)
{
    const auto bracket = token.find('[');
    if (bracket == npos)
        return {token, 0};
    if (token.back() != ']') {
        fail(line_no,
             "malformed register reference '" + std::string(token) + "'");
    }
    const std::string_view name = token.substr(0, bracket);
    const std::string_view dist =
        token.substr(bracket + 1, token.size() - bracket - 2);
    const auto distance = support::parseNumber<int>(dist);
    if (!distance)
        fail(line_no, "bad distance in '" + std::string(token) + "'");
    return {name, *distance};
}

} // namespace

Loop
parseLoop(const std::string& text)
{
    std::string_view rest = text;
    int line_no = 0;
    std::optional<LoopBuilder> builder;
    // Scratch reused across lines, so a parse allocates for the loop it
    // builds rather than for its tokens.
    std::vector<std::string_view> words;
    std::vector<std::string_view> mem_words;
    std::string tail;
    words.reserve(16);
    mem_words.reserve(4);
    tail.reserve(64);
    // Each line adds at most one operation or register.
    const auto lines = static_cast<int>(
        std::count(text.begin(), text.end(), '\n') + 1);

    while (!rest.empty()) {
        const auto newline = rest.find('\n');
        const std::string_view raw = rest.substr(0, newline);
        rest = newline == npos ? std::string_view() : rest.substr(newline + 1);
        ++line_no;
        const std::string_view line = cleanLine(raw);
        if (line.empty())
            continue;

        splitWords(line, words);
        if (!builder) {
            if (words.size() != 2 || words[0] != "loop")
                fail(line_no, "expected 'loop <name>' as first directive");
            builder.emplace(std::string(words[1]));
            builder->reserve(lines);
            continue;
        }

        // A line of vertical tabs or form feeds has no words: it falls
        // through to the operation-line check below.
        const std::string_view head = words.empty() ? "" : words[0];
        if (head == "array") {
            if (words.size() != 2)
                fail(line_no, "expected 'array <name>'");
            // Arrays are created lazily on first reference; a declaration
            // without any reference is accepted by touching the symbol via
            // a throwaway reference path below. Declarations are optional.
            continue;
        }
        if (head == "livein" || head == "recurrence" || head == "predicate") {
            if (words.size() != 2)
                fail(line_no, "expected '" + std::string(head) + " <name>'");
            builder->liveIn(std::string(words[1]), head == "predicate");
            continue;
        }

        // Operation line: <dest> = <opcode> operands...
        if (words.size() < 3 || words[1] != "=")
            fail(line_no, "expected '<dest> = <opcode> ...'");
        const std::string dest = head == "_" ? "" : std::string(head);
        const auto opcode = opcodeFromName(words[2]);
        if (!opcode)
            fail(line_no, "unknown opcode '" + std::string(words[2]) + "'");

        // Re-join the operand words with single spaces, then split on
        // commas / keywords.
        tail.clear();
        for (std::size_t i = 3; i < words.size(); ++i) {
            if (i > 3)
                tail += ' ';
            tail += words[i];
        }
        std::string_view operand_text = tail;

        // Extract "if <reg>" guard.
        std::optional<Operand> guard;
        std::string_view guard_text;
        const auto if_pos = operand_text.find(" if ");
        if (if_pos != npos) {
            guard_text = cleanLine(operand_text.substr(if_pos + 4));
            operand_text = cleanLine(operand_text.substr(0, if_pos));
        } else if (operand_text.starts_with("if ")) {
            guard_text = cleanLine(operand_text.substr(3));
            operand_text = {};
        }

        // Extract "@ <array> <offset> [stride]" memory reference.
        struct MemSpec
        {
            std::string array;
            int offset;
            int stride;
        };
        std::optional<MemSpec> mem;
        const auto at_pos = operand_text.find('@');
        if (at_pos != npos) {
            splitWords(operand_text.substr(at_pos + 1), mem_words);
            if (mem_words.size() != 2 && mem_words.size() != 3)
                fail(line_no, "expected '@ <array> <offset> [stride]'");
            const auto offset = support::parseNumber<int>(mem_words[1]);
            const auto stride = mem_words.size() == 3
                                    ? support::parseNumber<int>(mem_words[2])
                                    : std::optional<int>(1);
            if (!offset || !stride)
                fail(line_no, "bad memory offset/stride");
            mem = MemSpec{std::string(mem_words[0]), *offset, *stride};
            operand_text = cleanLine(operand_text.substr(0, at_pos));
        }

        // Parse comma-separated operands.
        std::vector<Operand> operands;
        while (!operand_text.empty()) {
            const auto comma = operand_text.find(',');
            const std::string_view token =
                cleanLine(operand_text.substr(0, comma));
            operand_text = comma == npos ? std::string_view()
                                         : operand_text.substr(comma + 1);
            if (token.empty())
                continue;
            if (token[0] == '#') {
                const auto value = parseImmediate(token.substr(1));
                if (!value)
                    fail(line_no, "bad immediate '" + std::string(token) + "'");
                operands.push_back(Operand::makeImm(*value));
            } else {
                const auto [name, distance] = parseRegRef(token, line_no);
                try {
                    operands.push_back(builder->reg(name, distance));
                } catch (const support::Error& e) {
                    fail(line_no, e.what());
                }
            }
        }

        if (!guard_text.empty()) {
            const auto [name, distance] = parseRegRef(guard_text, line_no);
            try {
                guard = builder->reg(name, distance);
            } catch (const support::Error& e) {
                fail(line_no, e.what());
            }
        }

        try {
            if (*opcode == Opcode::kLoad) {
                if (!mem)
                    fail(line_no, "load requires '@ <array> <offset>'");
                if (operands.size() != 1)
                    fail(line_no, "load takes one address operand");
                if (guard) {
                    builder->loadIf(dest, mem->array, mem->offset,
                                    operands[0], *guard, mem->stride);
                } else {
                    builder->load(dest, mem->array, mem->offset,
                                  operands[0], "", mem->stride);
                }
            } else if (*opcode == Opcode::kStore) {
                if (!mem)
                    fail(line_no, "store requires '@ <array> <offset>'");
                if (operands.size() != 2)
                    fail(line_no, "store takes address and value operands");
                if (guard) {
                    builder->storeIf(mem->array, mem->offset, operands[0],
                                     operands[1], *guard, mem->stride);
                } else {
                    builder->store(mem->array, mem->offset, operands[0],
                                   operands[1], "", mem->stride);
                }
            } else if (guard) {
                builder->opIf(*opcode, dest, std::move(operands), *guard);
            } else {
                builder->op(*opcode, dest, std::move(operands));
            }
        } catch (const support::Error& e) {
            fail(line_no, e.what());
        }
    }

    support::check(builder.has_value(), "empty loop text");
    return builder->build();
}

} // namespace ims::ir
