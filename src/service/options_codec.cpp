#include "service/options_codec.hpp"

#include <cstdint>
#include <sstream>
#include <string_view>
#include <vector>

#include "support/error.hpp"
#include "support/table.hpp"

namespace ims::service {

namespace {

void
appendTrips(std::string& out, const std::vector<int>& trips)
{
    if (trips.empty())
        out += '-';
    for (std::size_t i = 0; i < trips.size(); ++i) {
        if (i > 0)
            out += ',';
        out += std::to_string(trips[i]);
    }
}

/** Thrown for a value that does not parse; reported with its line. */
struct BadValue
{
};

template <class T>
T
number(std::string_view text)
{
    const auto value = support::parseNumber<T>(text);
    if (!value)
        throw BadValue();
    return *value;
}

bool
flagValue(std::string_view text)
{
    if (text != "0" && text != "1")
        throw BadValue();
    return text == "1";
}

std::vector<int>
parseTrips(std::string_view text)
{
    std::vector<int> trips;
    if (text == "-")
        return trips;
    while (true) {
        const auto comma = text.find(',');
        const auto item = text.substr(0, comma);
        const auto trip = support::parseNumber<int>(item);
        if (!trip) {
            throw support::Error("options text: bad trip '" +
                                 std::string(item) + "'");
        }
        trips.push_back(*trip);
        if (comma == std::string_view::npos)
            return trips;
        text.remove_prefix(comma + 1);
    }
}

} // namespace

std::string
canonicalOptionsText(const core::PipelinerOptions& options)
{
    const auto& schedule = options.schedule;
    std::string out;
    out.reserve(256);
    const auto line = [&out](const char* key, const std::string& value) {
        out += key;
        out += ' ';
        out += value;
        out += '\n';
    };
    const auto flag = [](bool on) { return std::string(on ? "1" : "0"); };
    line("strategy", sched::schedulerStrategyName(schedule.strategy));
    out += "budget_ratio ";
    support::appendRoundTripDouble(out, schedule.search.budgetRatio);
    out += '\n';
    line("max_ii_increase", std::to_string(schedule.search.maxIiIncrease));
    line("priority", sched::prioritySchemeName(schedule.priority));
    line("forward_progress", flag(schedule.forwardProgressRule));
    line("random_seed", std::to_string(schedule.randomSeed));
    line("exact_node_budget", std::to_string(schedule.exactNodeBudget));
    line("delay_mode", graph::delayModeName(options.graph.delayMode));
    line("dsa_form", flag(options.graph.dsaForm));
    line("verify", flag(options.verify));
    line("verify_sim", flag(options.verifySim));
    out += "verify_sim_trips ";
    appendTrips(out, options.verifySimTrips);
    out += '\n';
    line("verify_sim_seed", std::to_string(options.verifySimSeed));
    return out;
}

core::PipelinerOptions
parseOptionsText(const std::string& text)
{
    core::PipelinerOptions options;
    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        const auto space = line.find(' ');
        support::check(space != std::string::npos, [&] {
            return "options text line " + std::to_string(line_no) +
                   ": expected 'key value'";
        });
        const std::string key = line.substr(0, space);
        const std::string value = line.substr(space + 1);
        try {
            if (key == "strategy") {
                const auto strategy = sched::schedulerStrategyByName(value);
                support::check(strategy.has_value(), [&] {
                    return "unknown strategy '" + value + "'";
                });
                options.schedule.strategy = *strategy;
            } else if (key == "budget_ratio") {
                options.schedule.search.budgetRatio = number<double>(value);
            } else if (key == "max_ii_increase") {
                options.schedule.search.maxIiIncrease = number<int>(value);
            } else if (key == "priority") {
                const auto scheme = sched::prioritySchemeByName(value);
                support::check(scheme.has_value(), [&] {
                    return "unknown priority '" + value + "'";
                });
                options.schedule.priority = *scheme;
            } else if (key == "forward_progress") {
                options.schedule.forwardProgressRule = flagValue(value);
            } else if (key == "random_seed") {
                options.schedule.randomSeed = number<std::uint64_t>(value);
            } else if (key == "exact_node_budget") {
                options.schedule.exactNodeBudget =
                    number<std::int64_t>(value);
            } else if (key == "delay_mode") {
                const auto mode = graph::delayModeByName(value);
                support::check(mode.has_value(), [&] {
                    return "unknown delay mode '" + value + "'";
                });
                options.graph.delayMode = *mode;
            } else if (key == "dsa_form") {
                options.graph.dsaForm = flagValue(value);
            } else if (key == "verify") {
                options.verify = flagValue(value);
            } else if (key == "verify_sim") {
                options.verifySim = flagValue(value);
            } else if (key == "verify_sim_trips") {
                options.verifySimTrips = parseTrips(value);
            } else if (key == "verify_sim_seed") {
                options.verifySimSeed = number<std::uint64_t>(value);
            } else {
                throw support::Error("unknown key '" + key + "'");
            }
        } catch (const BadValue&) {
            throw support::Error("options text line " +
                                 std::to_string(line_no) + ": bad value '" +
                                 value + "' for '" + key + "'");
        }
    }
    return options;
}

} // namespace ims::service
