#include "campaign/campaign_spec.hpp"

#include "scenarios/scenarios.hpp"
#include "support/hash.hpp"
#include "support/line_grammar.hpp"
#include "support/parse_num.hpp"
#include "support/rng.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace mwl {

namespace {

/// Calls `take` on each comma-separated element of `list` ("1,2,4").
template <typename Take>
void for_each_item(const std::string& list, Take&& take)
{
    std::size_t pos = 0;
    while (pos <= list.size()) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        take(list.substr(pos, comma - pos));
        pos = comma + 1;
    }
}

/// `1,2,4` -> {1, 2, 4}; each element a positive int, no duplicates.
std::vector<int> parse_int_list(const std::string& value,
                                const std::string& token,
                                const std::string& what)
{
    std::vector<int> values;
    for_each_item(value, [&](const std::string& item) {
        const int v = parse_int_checked(item, token);
        require(v >= 1, what + " values must be >= 1");
        require(std::find(values.begin(), values.end(), v) == values.end(),
                "duplicate " + what + " value " + std::to_string(v));
        values.push_back(v);
    });
    return values;
}

/// `lo..hi`, or a single value as the degenerate range lo..lo.
void parse_range(const std::string& value, const std::string& token,
                 int& lo, int& hi)
{
    const std::size_t dots = value.find("..");
    if (dots == std::string::npos) {
        lo = hi = parse_int_checked(value, token);
        return;
    }
    lo = parse_int_checked(value.substr(0, dots), token);
    hi = parse_int_checked(value.substr(dots + 2), token);
}

/// Throws `spec_error` when `expand` would list more than
/// max_campaign_points points. The product saturates, so it cannot
/// overflow.
void require_point_limit(const campaign_spec& spec)
{
    constexpr std::uint64_t cap = max_campaign_points + 1;
    const std::uint64_t span =
        spec.slack_hi < spec.slack_lo
            ? 0
            : static_cast<std::uint64_t>(std::int64_t{spec.slack_hi} -
                                         spec.slack_lo);
    const std::uint64_t factors[] = {
        spec.scenarios.size(),
        std::min<std::uint64_t>(spec.perturb_count, cap) + 1,
        spec.adder_latencies.size(),
        spec.mul_bits_per_cycle.size(),
        spec.slack_step < 1 ? cap : span / spec.slack_step + 1,
        spec.tune_budgets.size()};
    std::uint64_t points = 1;
    for (const std::uint64_t f : factors) {
        // An empty factor counts once: expand() still runs the loops
        // outside it.
        points = std::min(points * std::clamp<std::uint64_t>(f, 1, cap), cap);
    }
    if (points == cap) {
        throw spec_error("spec expands to more than " +
                         std::to_string(max_campaign_points) + " points");
    }
}

} // namespace

std::vector<std::string> read_scenario_line(
    std::istream& line, std::unordered_set<std::string>& seen)
{
    const std::vector<std::string> known = scenario_names();
    std::vector<std::string> names;
    std::string name;
    bool any = false;
    while (line >> name) {
        any = true;
        if (name == "all") {
            for (const std::string& each : known) {
                if (seen.insert(each).second) {
                    names.push_back(each);
                }
            }
            continue;
        }
        require(std::find(known.begin(), known.end(), name) != known.end(),
                "unknown scenario '" + name + "'");
        require(seen.insert(name).second,
                "duplicate scenario '" + name + "'");
        names.push_back(name);
    }
    require(any, "expected 'scenario NAME ...'");
    return names;
}

void add_budget(std::vector<double>& budgets, const std::string& text,
                const std::string& context)
{
    const double value = parse_double_checked(text, context);
    require(value > 0.0, "budgets must be positive, got '" + text + "'");
    require(std::find(budgets.begin(), budgets.end(), value) ==
                budgets.end(),
            "duplicate budget '" + text + "'");
    budgets.push_back(value);
}

void require_frac_range(int min_frac, int max_frac)
{
    require(min_frac >= 0 && min_frac <= max_frac,
            "frac range must be 0 <= min <= max");
}

campaign_spec campaign_spec::parse(std::istream& in)
{
    campaign_spec spec;
    std::unordered_set<std::string> seen_scenarios;
    once_per_spec sections;
    const auto on_line = [&](const std::string& keyword, std::istream& line,
                             std::size_t) {
        if (keyword == "scenario") {
            for (std::string& name : read_scenario_line(line, seen_scenarios)) {
                spec.scenarios.push_back(std::move(name));
            }
            return;
        }
        sections.enter(keyword);
        if (keyword == "lambda") {
            for_each_key_value(line, keyword, [&](const std::string& key,
                                                  const std::string& value,
                                                  const std::string& token) {
                if (key == "slack") {
                    parse_range(value, token, spec.slack_lo, spec.slack_hi);
                } else if (key == "step") {
                    spec.slack_step = parse_int_checked(value, token);
                } else {
                    return false;
                }
                return true;
            });
            require(spec.slack_lo >= 0 && spec.slack_hi >= spec.slack_lo &&
                        spec.slack_hi <= max_campaign_slack_percent,
                    "slack range must be 0 <= lo <= hi <= " +
                        std::to_string(max_campaign_slack_percent));
            require(spec.slack_step >= 1, "step must be >= 1");
        } else if (keyword == "model") {
            for_each_key_value(line, keyword, [&](const std::string& key,
                                                  const std::string& value,
                                                  const std::string& token) {
                if (key == "adder-latency") {
                    spec.adder_latencies = parse_int_list(value, token, key);
                } else if (key == "mul-bits-per-cycle") {
                    spec.mul_bits_per_cycle =
                        parse_int_list(value, token, key);
                } else {
                    return false;
                }
                return true;
            });
        } else if (keyword == "perturb") {
            for_each_key_value(line, keyword, [&](const std::string& key,
                                                  const std::string& value,
                                                  const std::string& token) {
                if (key == "count") {
                    spec.perturb_count = parse_u64_checked(value, token);
                } else if (key == "flips") {
                    spec.perturb_flips = parse_int_checked(value, token);
                    require(spec.perturb_flips >= 1, "flips must be >= 1");
                } else if (key == "seed") {
                    spec.perturb_seed = parse_u64_checked(value, token);
                } else {
                    return false;
                }
                return true;
            });
            require(spec.perturb_count >= 1, "perturb needs count=N (>= 1)");
        } else if (keyword == "tune") {
            for_each_key_value(line, keyword, [&](const std::string& key,
                                                  const std::string& value,
                                                  const std::string& token) {
                if (key == "budget") {
                    spec.tune_budgets.clear();
                    for_each_item(value, [&](const std::string& item) {
                        add_budget(spec.tune_budgets, item, token);
                    });
                } else if (key == "min-frac") {
                    spec.tune_min_frac = parse_int_checked(value, token);
                } else if (key == "max-frac") {
                    spec.tune_max_frac = parse_int_checked(value, token);
                } else if (key == "seed") {
                    spec.tune_seed = parse_u64_checked(value, token);
                } else if (key == "max-steps") {
                    spec.tune_max_steps = parse_u64_checked(value, token);
                } else if (key == "anneal") {
                    spec.tune_anneal = parse_u64_checked(value, token);
                } else {
                    return false;
                }
                return true;
            });
            require(!spec.tune_budgets.empty(), "tune needs budget=LIST");
            require_frac_range(spec.tune_min_frac, spec.tune_max_frac);
        } else {
            throw precondition_error("unknown keyword '" + keyword + "'");
        }
    };
    for_each_line<spec_error>(in, "spec line", on_line);
    if (spec.scenarios.empty()) {
        throw spec_error("spec names no scenarios");
    }
    require_point_limit(spec);
    return spec;
}

campaign_spec campaign_spec::parse(const std::string& text)
{
    std::istringstream in(text);
    return parse(in);
}

std::string campaign_point::key() const
{
    std::string base = scenario + "/v" + std::to_string(variant) + "/a" +
                       std::to_string(adder_latency) + "m" +
                       std::to_string(mul_bits_per_cycle) + "/s" +
                       std::to_string(slack_percent);
    if (tuned) {
        // %g keeps 1e-06 stable and short; untuned campaigns keep the
        // historic key (and fingerprint) byte for byte.
        std::ostringstream b;
        b << budget;
        base += "/b" + b.str();
    }
    return base;
}

std::vector<campaign_point> expand(const campaign_spec& spec)
{
    // The limit bounds every loop below; the slack loop runs in 64 bits
    // so `slack += step` cannot overflow at INT_MAX.
    require_point_limit(spec);
    std::vector<campaign_point> points;
    for (const std::string& scenario : spec.scenarios) {
        for (std::size_t v = 0; v <= spec.perturb_count; ++v) {
            for (const int adder : spec.adder_latencies) {
                for (const int bits : spec.mul_bits_per_cycle) {
                    for (std::int64_t slack = spec.slack_lo;
                         slack <= spec.slack_hi; slack += spec.slack_step) {
                        campaign_point p;
                        p.index = points.size();
                        p.scenario = scenario;
                        p.variant = v;
                        p.adder_latency = adder;
                        p.mul_bits_per_cycle = bits;
                        p.slack_percent = static_cast<int>(slack);
                        if (spec.tune_budgets.empty()) {
                            points.push_back(std::move(p));
                            continue;
                        }
                        // Tuning campaigns add the budget as the
                        // innermost loop.
                        for (const double budget : spec.tune_budgets) {
                            campaign_point t = p;
                            t.index = points.size();
                            t.tuned = true;
                            t.budget = budget;
                            points.push_back(std::move(t));
                        }
                    }
                }
            }
        }
    }
    return points;
}

std::uint64_t points_fingerprint(const std::vector<campaign_point>& points)
{
    fnv1a_hasher h;
    h.mix(std::string_view("mwl-campaign-points-v1"));
    h.mix(static_cast<std::int64_t>(points.size()));
    for (const campaign_point& p : points) {
        h.mix(std::string_view(p.key()));
    }
    return h.digest();
}

sequencing_graph make_variant_graph(const campaign_spec& spec,
                                    const std::string& scenario,
                                    std::size_t variant)
{
    sequencing_graph base = make_scenario(scenario).graph;
    if (variant == 0) {
        return base;
    }
    fnv1a_hasher h;
    h.mix(static_cast<std::int64_t>(spec.perturb_seed));
    h.mix(std::string_view(scenario));
    h.mix(static_cast<std::int64_t>(variant));
    rng r(h.digest());

    // Collect the perturbed shapes first, then rebuild: the graph itself
    // is append-only, so a variant is a fresh graph with identical edges.
    std::vector<op_shape> shapes;
    shapes.reserve(base.size());
    for (const op_id id : base.all_ops()) {
        shapes.push_back(base.shape(id));
    }
    for (int flip = 0; flip < spec.perturb_flips && !shapes.empty();
         ++flip) {
        const std::size_t pick =
            r.uniform(0, static_cast<std::uint64_t>(shapes.size()) - 1);
        op_shape& s = shapes[pick];
        const int delta = r.chance(0.5) ? 1 : -1;
        if (s.kind() == op_kind::add) {
            // Keep widths in the range every model and the RTL layer
            // accept: at least 1 bit, and capped well below 64.
            const int w = std::clamp(s.width_a() + delta, 1, 48);
            s = op_shape::adder(w);
        } else {
            const bool first = r.chance(0.5);
            int a = s.width_a();
            int b = s.width_b();
            (first ? a : b) = std::clamp((first ? a : b) + delta, 1, 32);
            s = op_shape::multiplier(a, b);
        }
    }

    sequencing_graph out;
    for (const op_id id : base.all_ops()) {
        out.add_operation(shapes[id.value()], base.op(id).name);
    }
    for (const op_id id : base.all_ops()) {
        for (const op_id succ : base.successors(id)) {
            out.add_dependency(id, succ);
        }
    }
    return out;
}

} // namespace mwl
