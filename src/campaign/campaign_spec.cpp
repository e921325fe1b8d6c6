#include "campaign/campaign_spec.hpp"

#include "scenarios/scenarios.hpp"
#include "support/hash.hpp"
#include "support/parse_num.hpp"
#include "support/rng.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace mwl {

namespace {

[[noreturn]] void fail_line(std::size_t line_no, const std::string& message)
{
    throw spec_error("spec line " + std::to_string(line_no) + ": " +
                     message);
}

/// `text` through one of support/parse_num's checked parsers; a bad
/// number is a spec error naming the line, the key and the text.
template <typename Parse>
auto spec_number(Parse parse, const std::string& text, std::size_t line_no,
                 const std::string& what)
{
    try {
        return parse(text, std::string());
    } catch (const precondition_error&) {
        fail_line(line_no, "bad " + what + " value '" + text + "'");
    }
}

int parse_int(const std::string& text, std::size_t line_no,
              const std::string& what)
{
    return spec_number(parse_int_checked, text, line_no, what);
}

std::uint64_t parse_u64(const std::string& text, std::size_t line_no,
                        const std::string& what)
{
    return spec_number(parse_u64_checked, text, line_no, what);
}

/// `1,2,4` -> {1, 2, 4}; each element a positive int.
std::vector<int> parse_int_list(const std::string& text, std::size_t line_no,
                                const std::string& what)
{
    std::vector<int> values;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t comma = std::min(text.find(',', pos), text.size());
        const int value =
            parse_int(text.substr(pos, comma - pos), line_no, what);
        if (value < 1) {
            fail_line(line_no, what + " values must be >= 1");
        }
        if (std::find(values.begin(), values.end(), value) != values.end()) {
            fail_line(line_no, "duplicate " + what + " value " +
                                   std::to_string(value));
        }
        values.push_back(value);
        pos = comma + 1;
    }
    return values;
}

/// Split `lo..hi` around the dots; both halves are ints.
void parse_range(const std::string& text, std::size_t line_no, int& lo,
                 int& hi)
{
    const std::size_t dots = text.find("..");
    if (dots == std::string::npos) {
        // A single value is the degenerate range lo..lo.
        lo = hi = parse_int(text, line_no, "slack");
        return;
    }
    lo = parse_int(text.substr(0, dots), line_no, "slack");
    hi = parse_int(text.substr(dots + 2), line_no, "slack");
}

/// `1e-6,1e-5` -> {1e-6, 1e-5}; each element a positive double, no
/// duplicates (the budget list of a tune line).
std::vector<double> parse_double_list(const std::string& text,
                                      std::size_t line_no,
                                      const std::string& what)
{
    std::vector<double> values;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t comma = std::min(text.find(',', pos), text.size());
        const std::string token = text.substr(pos, comma - pos);
        const double value =
            spec_number(parse_double_checked, token, line_no, what);
        if (value <= 0.0) {
            fail_line(line_no, what + " values must be positive");
        }
        if (std::find(values.begin(), values.end(), value) != values.end()) {
            fail_line(line_no, "duplicate " + what + " value '" + token +
                                   "'");
        }
        values.push_back(value);
        pos = comma + 1;
    }
    return values;
}

/// key=value splitter for the lambda/model/perturb keyword lines.
bool split_kv(const std::string& token, std::string& key, std::string& value)
{
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
        return false;
    }
    key = token.substr(0, eq);
    value = token.substr(eq + 1);
    return true;
}

} // namespace

campaign_spec campaign_spec::parse(std::istream& in)
{
    campaign_spec spec;
    std::unordered_set<std::string> seen_scenarios;
    bool saw_lambda = false;
    bool saw_model = false;
    bool saw_perturb = false;
    bool saw_tune = false;

    const std::vector<std::string> known = scenario_names();
    std::string raw;
    std::size_t line_no = 0;
    while (std::getline(in, raw)) {
        ++line_no;
        std::istringstream line(raw);
        std::string keyword;
        if (!(line >> keyword) || keyword.front() == '#') {
            continue;
        }
        if (keyword == "scenario") {
            std::string name;
            bool any = false;
            while (line >> name) {
                any = true;
                if (name == "all") {
                    for (const std::string& each : known) {
                        if (seen_scenarios.insert(each).second) {
                            spec.scenarios.push_back(each);
                        }
                    }
                    continue;
                }
                if (std::find(known.begin(), known.end(), name) ==
                    known.end()) {
                    fail_line(line_no, "unknown scenario '" + name + "'");
                }
                if (!seen_scenarios.insert(name).second) {
                    fail_line(line_no, "duplicate scenario '" + name + "'");
                }
                spec.scenarios.push_back(name);
            }
            if (!any) {
                fail_line(line_no, "expected 'scenario NAME ...'");
            }
        } else if (keyword == "lambda") {
            if (saw_lambda) {
                fail_line(line_no, "duplicate lambda line");
            }
            saw_lambda = true;
            std::string token;
            std::string key;
            std::string value;
            while (line >> token) {
                if (!split_kv(token, key, value)) {
                    fail_line(line_no, "expected key=value, got '" + token +
                                           "'");
                }
                if (key == "slack") {
                    parse_range(value, line_no, spec.slack_lo,
                                spec.slack_hi);
                } else if (key == "step") {
                    spec.slack_step = parse_int(value, line_no, "step");
                } else {
                    fail_line(line_no, "unknown lambda key '" + key + "'");
                }
            }
            if (spec.slack_lo < 0 || spec.slack_hi < spec.slack_lo) {
                fail_line(line_no, "slack range must be 0 <= lo <= hi");
            }
            if (spec.slack_step < 1) {
                fail_line(line_no, "step must be >= 1");
            }
        } else if (keyword == "model") {
            if (saw_model) {
                fail_line(line_no, "duplicate model line");
            }
            saw_model = true;
            std::string token;
            std::string key;
            std::string value;
            while (line >> token) {
                if (!split_kv(token, key, value)) {
                    fail_line(line_no, "expected key=value, got '" + token +
                                           "'");
                }
                if (key == "adder-latency") {
                    spec.adder_latencies =
                        parse_int_list(value, line_no, "adder-latency");
                } else if (key == "mul-bits-per-cycle") {
                    spec.mul_bits_per_cycle =
                        parse_int_list(value, line_no, "mul-bits-per-cycle");
                } else {
                    fail_line(line_no, "unknown model key '" + key + "'");
                }
            }
        } else if (keyword == "perturb") {
            if (saw_perturb) {
                fail_line(line_no, "duplicate perturb line");
            }
            saw_perturb = true;
            std::string token;
            std::string key;
            std::string value;
            while (line >> token) {
                if (!split_kv(token, key, value)) {
                    fail_line(line_no, "expected key=value, got '" + token +
                                           "'");
                }
                if (key == "count") {
                    spec.perturb_count = parse_u64(value, line_no, "count");
                } else if (key == "flips") {
                    spec.perturb_flips = parse_int(value, line_no, "flips");
                    if (spec.perturb_flips < 1) {
                        fail_line(line_no, "flips must be >= 1");
                    }
                } else if (key == "seed") {
                    spec.perturb_seed = parse_u64(value, line_no, "seed");
                } else {
                    fail_line(line_no, "unknown perturb key '" + key + "'");
                }
            }
            if (spec.perturb_count < 1) {
                fail_line(line_no, "perturb needs count=N (>= 1)");
            }
        } else if (keyword == "tune") {
            if (saw_tune) {
                fail_line(line_no, "duplicate tune line");
            }
            saw_tune = true;
            std::string token;
            std::string key;
            std::string value;
            while (line >> token) {
                if (!split_kv(token, key, value)) {
                    fail_line(line_no, "expected key=value, got '" + token +
                                           "'");
                }
                if (key == "budget") {
                    spec.tune_budgets =
                        parse_double_list(value, line_no, "budget");
                } else if (key == "min-frac") {
                    spec.tune_min_frac = parse_int(value, line_no,
                                                   "min-frac");
                } else if (key == "max-frac") {
                    spec.tune_max_frac = parse_int(value, line_no,
                                                   "max-frac");
                } else if (key == "seed") {
                    spec.tune_seed = parse_u64(value, line_no, "seed");
                } else if (key == "max-steps") {
                    spec.tune_max_steps =
                        parse_u64(value, line_no, "max-steps");
                } else if (key == "anneal") {
                    spec.tune_anneal = parse_u64(value, line_no, "anneal");
                } else {
                    fail_line(line_no, "unknown tune key '" + key + "'");
                }
            }
            if (spec.tune_budgets.empty()) {
                fail_line(line_no, "tune needs budget=LIST");
            }
            if (spec.tune_min_frac < 0 ||
                spec.tune_max_frac < spec.tune_min_frac) {
                fail_line(line_no,
                          "tune frac range must be 0 <= min <= max");
            }
        } else {
            fail_line(line_no, "unknown keyword '" + keyword + "'");
        }
    }
    if (spec.scenarios.empty()) {
        throw spec_error("spec names no scenarios");
    }
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
    std::vector<campaign_point> points;
    for (const std::string& scenario : spec.scenarios) {
        for (std::size_t v = 0; v <= spec.perturb_count; ++v) {
            for (const int adder : spec.adder_latencies) {
                for (const int bits : spec.mul_bits_per_cycle) {
                    for (int slack = spec.slack_lo; slack <= spec.slack_hi;
                         slack += spec.slack_step) {
                        campaign_point p;
                        p.index = points.size();
                        p.scenario = scenario;
                        p.variant = v;
                        p.adder_latency = adder;
                        p.mul_bits_per_cycle = bits;
                        p.slack_percent = slack;
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
