#include "wordlength/tune_spec.hpp"

#include "support/line_grammar.hpp"
#include "support/parse_num.hpp"

#include <sstream>
#include <unordered_set>

namespace mwl {

tune_spec tune_spec::parse(std::istream& in)
{
    tune_spec spec;
    std::unordered_set<std::string> seen_names;
    once_per_spec sections;
    const auto on_line = [&](const std::string& keyword, std::istream& line,
                             std::size_t) {
        if (keyword == "scenario") {
            for (std::string& name : read_scenario_line(line, seen_names)) {
                spec.entries.push_back({std::move(name), {}});
            }
            return;
        }
        if (keyword == "graph") {
            std::string file;
            bool any = false;
            while (line >> file) {
                any = true;
                require(seen_names.insert(file).second,
                        "duplicate design '" + file + "'");
                spec.entries.push_back({{}, file});
            }
            require(any, "expected 'graph FILE ...'");
            return;
        }
        sections.enter(keyword);
        if (keyword == "budget") {
            std::string token;
            while (line >> token) {
                add_budget(spec.budgets, token, {});
            }
            require(!spec.budgets.empty(), "expected 'budget VALUE ...'");
        } else if (keyword == "frac") {
            for_each_key_value(line, keyword, [&](const std::string& key,
                                                  const std::string& value,
                                                  const std::string& token) {
                if (key == "min") {
                    spec.min_frac_bits = parse_int_checked(value, token);
                } else if (key == "max") {
                    spec.max_frac_bits = parse_int_checked(value, token);
                } else {
                    return false;
                }
                return true;
            });
            require_frac_range(spec.min_frac_bits, spec.max_frac_bits);
        } else if (keyword == "search") {
            for_each_key_value(line, keyword, [&](const std::string& key,
                                                  const std::string& value,
                                                  const std::string& token) {
                if (key == "seed") {
                    spec.seed = parse_u64_checked(value, token);
                } else if (key == "max-steps") {
                    spec.max_steps = parse_size_checked(value, token);
                } else if (key == "anneal") {
                    spec.anneal_iterations = parse_size_checked(value, token);
                } else if (key == "temp") {
                    spec.anneal_temp = parse_double_checked(value, token);
                    require(spec.anneal_temp > 0.0, "temp must be positive");
                } else {
                    return false;
                }
                return true;
            });
        } else if (keyword == "gain") {
            for_each_key_value(line, keyword, [&](const std::string& key,
                                                  const std::string& value,
                                                  const std::string& token) {
                if (key == "model") {
                    require(value == "unit" || value == "attenuating",
                            "unknown gain model '" + value +
                                "' (unit | attenuating)");
                    spec.gains = value == "unit" ? gain_model::unit
                                                 : gain_model::attenuating;
                } else if (key == "base-frac") {
                    spec.base_frac_bits = parse_int_checked(value, token);
                    require(spec.base_frac_bits >= 0,
                            "base-frac must be >= 0");
                } else if (key == "cap") {
                    spec.width_cap = parse_int_checked(value, token);
                    require(spec.width_cap >= 4 && spec.width_cap <= 48,
                            "cap must be in [4, 48]");
                } else {
                    return false;
                }
                return true;
            });
        } else if (keyword == "lambda") {
            for_each_key_value(line, keyword, [&](const std::string& key,
                                                  const std::string& value,
                                                  const std::string& token) {
                if (key != "slack") {
                    return false;
                }
                const double percent = parse_double_checked(value, token);
                require(percent >= 0.0, "slack must be non-negative");
                spec.slack = percent / 100.0;
                return true;
            });
        } else {
            throw precondition_error("unknown keyword '" + keyword + "'");
        }
    };
    for_each_line<spec_error>(in, "spec line", on_line);
    if (spec.entries.empty()) {
        throw spec_error("spec names no designs");
    }
    if (spec.budgets.empty()) {
        throw spec_error("spec names no budgets");
    }
    return spec;
}

tune_spec tune_spec::parse(const std::string& text)
{
    std::istringstream in(text);
    return parse(in);
}

} // namespace mwl
