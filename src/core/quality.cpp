#include "core/quality.hpp"

#include "baseline/descending.hpp"
#include "baseline/two_stage.hpp"
#include "core/dpalloc.hpp"
#include "dfg/analysis.hpp"
#include "ilp/formulation.hpp"
#include "rtl/netlist.hpp"
#include "support/json.hpp"
#include "tgff/corpus.hpp"

#include <cctype>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <utility>

namespace mwl {
namespace {

// ---------------------------------------------------------- JSON writing --

/// Shortest representation that round-trips through stod.
std::string json_number(double value)
{
    std::ostringstream out;
    out << std::setprecision(17) << value;
    return out.str();
}

// ---------------------------------------------------------- JSON parsing --
//
// A minimal recursive-descent reader for the subset to_json emits
// (objects, arrays, strings without exotic escapes, numbers, booleans).
// Self-contained on purpose: goldens are repo-internal artifacts and the
// container has no JSON library to lean on.

struct json_value {
    enum class kind { object, array, string, number, boolean };
    kind what = kind::number;
    double number = 0.0;
    bool boolean = false;
    std::string string;
    std::vector<json_value> array;
    std::vector<std::pair<std::string, json_value>> object;
};

class json_parser {
public:
    explicit json_parser(const std::string& text) : text_(text) {}

    json_value parse()
    {
        json_value v = value();
        skip_space();
        if (at_ != text_.size()) {
            fail("trailing characters after the top-level value");
        }
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& message) const
    {
        throw quality_format_error("quality report JSON, offset " +
                                   std::to_string(at_) + ": " + message);
    }

    void skip_space()
    {
        while (at_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[at_]))) {
            ++at_;
        }
    }

    char peek()
    {
        skip_space();
        if (at_ >= text_.size()) {
            fail("unexpected end of input");
        }
        return text_[at_];
    }

    void expect(char c)
    {
        if (peek() != c) {
            fail(std::string("expected '") + c + "'");
        }
        ++at_;
    }

    std::string string_literal()
    {
        expect('"');
        std::string out;
        while (at_ < text_.size() && text_[at_] != '"') {
            char c = text_[at_++];
            if (c == '\\') {
                if (at_ >= text_.size()) {
                    fail("unterminated escape");
                }
                c = text_[at_++];
                if (c != '"' && c != '\\') {
                    fail("unsupported escape sequence");
                }
            }
            out += c;
        }
        if (at_ >= text_.size()) {
            fail("unterminated string");
        }
        ++at_; // closing quote
        return out;
    }

    json_value value()
    {
        const char c = peek();
        json_value v;
        if (c == '{') {
            ++at_;
            v.what = json_value::kind::object;
            if (peek() == '}') {
                ++at_;
                return v;
            }
            while (true) {
                std::string key = string_literal();
                expect(':');
                v.object.emplace_back(std::move(key), value());
                if (peek() == ',') {
                    ++at_;
                    continue;
                }
                expect('}');
                return v;
            }
        }
        if (c == '[') {
            ++at_;
            v.what = json_value::kind::array;
            if (peek() == ']') {
                ++at_;
                return v;
            }
            while (true) {
                v.array.push_back(value());
                if (peek() == ',') {
                    ++at_;
                    continue;
                }
                expect(']');
                return v;
            }
        }
        if (c == '"') {
            v.what = json_value::kind::string;
            v.string = string_literal();
            return v;
        }
        if (text_.compare(at_, 4, "true") == 0) {
            at_ += 4;
            v.what = json_value::kind::boolean;
            v.boolean = true;
            return v;
        }
        if (text_.compare(at_, 5, "false") == 0) {
            at_ += 5;
            v.what = json_value::kind::boolean;
            return v;
        }
        std::size_t end = at_;
        while (end < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[end])) ||
                text_[end] == '-' || text_[end] == '+' || text_[end] == '.' ||
                text_[end] == 'e' || text_[end] == 'E')) {
            ++end;
        }
        if (end == at_) {
            fail("expected a value");
        }
        try {
            v.number = std::stod(text_.substr(at_, end - at_));
        } catch (const std::exception&) {
            fail("malformed number");
        }
        at_ = end;
        return v;
    }

    const std::string& text_;
    std::size_t at_ = 0;
};

const json_value& member(const json_value& obj, const char* key)
{
    if (obj.what != json_value::kind::object) {
        throw quality_format_error(
            std::string("expected an object around key '") + key + "'");
    }
    for (const auto& [name, value] : obj.object) {
        if (name == key) {
            return value;
        }
    }
    throw quality_format_error(std::string("missing key '") + key + "'");
}

double number_of(const json_value& obj, const char* key)
{
    const json_value& v = member(obj, key);
    if (v.what != json_value::kind::number) {
        throw quality_format_error(std::string("key '") + key +
                                   "' is not a number");
    }
    return v.number;
}

int int_of(const json_value& obj, const char* key)
{
    return static_cast<int>(number_of(obj, key));
}

std::size_t size_of(const json_value& obj, const char* key)
{
    const double v = number_of(obj, key);
    if (v < 0) {
        throw quality_format_error(std::string("key '") + key +
                                   "' must be non-negative");
    }
    return static_cast<std::size_t>(v);
}

bool bool_of(const json_value& obj, const char* key)
{
    const json_value& v = member(obj, key);
    if (v.what != json_value::kind::boolean) {
        throw quality_format_error(std::string("key '") + key +
                                   "' is not a boolean");
    }
    return v.boolean;
}

std::string string_of(const json_value& obj, const char* key)
{
    const json_value& v = member(obj, key);
    if (v.what != json_value::kind::string) {
        throw quality_format_error(std::string("key '") + key +
                                   "' is not a string");
    }
    return v.string;
}

// ------------------------------------------------------------- diffing ----

void push_drift(std::vector<metric_drift>& out, const quality_report& golden,
                const std::string& allocator, const char* metric,
                double expected, double actual, double allowed)
{
    if (std::abs(actual - expected) <= allowed) {
        return;
    }
    out.push_back(
        {golden.scenario, allocator, metric, expected, actual, allowed});
}

} // namespace

quality_metrics measure_quality(const sequencing_graph& graph,
                                const hardware_model& model,
                                const datapath& path, int lambda)
{
    quality_metrics m;
    m.lambda = lambda;
    m.latency = path.latency;
    m.fu_count = path.instances.size();
    m.fu_area = path.total_area;
    const rtl_netlist net = build_rtl(graph, model, path);
    m.register_count = net.registers.size();
    m.register_area = net.register_area;
    m.mux_count = net.muxes.size();
    m.mux_area = net.mux_area;
    m.ext_area = net.total_area();
    return m;
}

quality_report measure_quality_report(const sequencing_graph& graph,
                                      std::string name,
                                      const hardware_model& model,
                                      const quality_options& options)
{
    require(!graph.empty(), "cannot measure quality of an empty graph");
    quality_report report;
    report.scenario = std::move(name);
    report.ops = graph.size();
    report.edges = graph.edge_count();
    report.lambda_min = min_latency(graph, model);
    report.options = options;
    const int lambda = relaxed_lambda(report.lambda_min, options.slack);

    const auto record = [&](const char* allocator, const datapath& path) {
        report.allocators.push_back(
            {allocator, measure_quality(graph, model, path, lambda)});
    };
    if (options.use_dpalloc) {
        record("dpalloc", dpalloc(graph, model, lambda).path);
    }
    if (options.use_two_stage) {
        record("two_stage", two_stage_allocate(graph, model, lambda).path);
    }
    if (options.use_descending) {
        record("descending", descending_allocate(graph, model, lambda));
    }
    if (options.ilp_max_ops > 0 && graph.size() <= options.ilp_max_ops) {
        mip_options mip;
        mip.max_nodes = options.ilp_max_nodes;
        const ilp_result ilp = solve_ilp(graph, model, lambda, mip);
        // Only proven optima are locked in: the node cap is deterministic,
        // so whether this row exists is machine-independent, and an
        // unproven incumbent would be a meaningless golden.
        if (ilp.status == mip_status::optimal) {
            record("ilp", ilp.path);
        }
    }
    return report;
}

std::string to_json(const quality_report& report)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"format_version\": " << quality_format_version << ",\n"
        << "  \"scenario\": \"" << json_escape(report.scenario) << "\",\n"
        << "  \"ops\": " << report.ops << ",\n"
        << "  \"edges\": " << report.edges << ",\n"
        << "  \"lambda_min\": " << report.lambda_min << ",\n"
        << "  \"options\": {\"slack\": " << json_number(report.options.slack)
        << ", \"ilp_max_ops\": " << report.options.ilp_max_ops
        << ", \"ilp_max_nodes\": " << report.options.ilp_max_nodes
        << ", \"use_dpalloc\": "
        << (report.options.use_dpalloc ? "true" : "false")
        << ", \"use_two_stage\": "
        << (report.options.use_two_stage ? "true" : "false")
        << ", \"use_descending\": "
        << (report.options.use_descending ? "true" : "false") << "},\n"
        << "  \"allocators\": [";
    for (std::size_t i = 0; i < report.allocators.size(); ++i) {
        const allocator_quality& a = report.allocators[i];
        const quality_metrics& m = a.metrics;
        out << (i == 0 ? "" : ",") << "\n    {\"name\": \""
            << json_escape(a.allocator) << "\", \"lambda\": " << m.lambda
            << ", \"latency\": " << m.latency
            << ", \"fu_count\": " << m.fu_count
            << ", \"fu_area\": " << json_number(m.fu_area)
            << ", \"register_count\": " << m.register_count
            << ", \"register_area\": " << json_number(m.register_area)
            << ", \"mux_count\": " << m.mux_count
            << ", \"mux_area\": " << json_number(m.mux_area)
            << ", \"ext_area\": " << json_number(m.ext_area) << "}";
    }
    out << "\n  ]\n}\n";
    return out.str();
}

quality_report parse_quality_report(const std::string& text)
{
    const json_value root = json_parser(text).parse();
    const int version = int_of(root, "format_version");
    if (version != quality_format_version) {
        throw quality_format_error(
            "golden format_version " + std::to_string(version) +
            " does not match this build's version " +
            std::to_string(quality_format_version) +
            " (refresh with mwl_scenarios --update-goldens)");
    }
    quality_report report;
    report.scenario = string_of(root, "scenario");
    report.ops = size_of(root, "ops");
    report.edges = size_of(root, "edges");
    report.lambda_min = int_of(root, "lambda_min");
    const json_value& options = member(root, "options");
    report.options.slack = number_of(options, "slack");
    report.options.ilp_max_ops = size_of(options, "ilp_max_ops");
    report.options.ilp_max_nodes = size_of(options, "ilp_max_nodes");
    report.options.use_dpalloc = bool_of(options, "use_dpalloc");
    report.options.use_two_stage = bool_of(options, "use_two_stage");
    report.options.use_descending = bool_of(options, "use_descending");
    const json_value& allocators = member(root, "allocators");
    if (allocators.what != json_value::kind::array) {
        throw quality_format_error("key 'allocators' is not an array");
    }
    for (const json_value& entry : allocators.array) {
        allocator_quality a;
        a.allocator = string_of(entry, "name");
        a.metrics.lambda = int_of(entry, "lambda");
        a.metrics.latency = int_of(entry, "latency");
        a.metrics.fu_count = size_of(entry, "fu_count");
        a.metrics.fu_area = number_of(entry, "fu_area");
        a.metrics.register_count = size_of(entry, "register_count");
        a.metrics.register_area = number_of(entry, "register_area");
        a.metrics.mux_count = size_of(entry, "mux_count");
        a.metrics.mux_area = number_of(entry, "mux_area");
        a.metrics.ext_area = number_of(entry, "ext_area");
        report.allocators.push_back(std::move(a));
    }
    return report;
}

std::vector<metric_drift> diff_quality(const quality_report& golden,
                                       const quality_report& current,
                                       const drift_tolerances& tol)
{
    std::vector<metric_drift> out;
    const auto structural = [&](const char* metric, double expected,
                                double actual) {
        push_drift(out, golden, "-", metric, expected, actual, 0.0);
    };
    structural("ops", static_cast<double>(golden.ops),
               static_cast<double>(current.ops));
    structural("edges", static_cast<double>(golden.edges),
               static_cast<double>(current.edges));
    structural("lambda_min", golden.lambda_min, current.lambda_min);
    structural("options.slack", golden.options.slack, current.options.slack);
    structural("options.ilp_max_ops",
               static_cast<double>(golden.options.ilp_max_ops),
               static_cast<double>(current.options.ilp_max_ops));

    for (const allocator_quality& want : golden.allocators) {
        const allocator_quality* have = nullptr;
        for (const allocator_quality& a : current.allocators) {
            if (a.allocator == want.allocator) {
                have = &a;
                break;
            }
        }
        if (have == nullptr) {
            push_drift(out, golden, want.allocator, "present", 1.0, 0.0, 0.0);
            continue;
        }
        const quality_metrics& e = want.metrics;
        const quality_metrics& a = have->metrics;
        const auto area_tol = [&](double expected) {
            return tol.area_rel * std::max(1.0, std::abs(expected));
        };
        push_drift(out, golden, want.allocator, "lambda", e.lambda, a.lambda,
                   0.0);
        push_drift(out, golden, want.allocator, "latency", e.latency,
                   a.latency, tol.latency_abs);
        push_drift(out, golden, want.allocator, "fu_count",
                   static_cast<double>(e.fu_count),
                   static_cast<double>(a.fu_count), tol.count_abs);
        push_drift(out, golden, want.allocator, "fu_area", e.fu_area,
                   a.fu_area, area_tol(e.fu_area));
        push_drift(out, golden, want.allocator, "register_count",
                   static_cast<double>(e.register_count),
                   static_cast<double>(a.register_count), tol.count_abs);
        push_drift(out, golden, want.allocator, "register_area",
                   e.register_area, a.register_area,
                   area_tol(e.register_area));
        push_drift(out, golden, want.allocator, "mux_count",
                   static_cast<double>(e.mux_count),
                   static_cast<double>(a.mux_count), tol.count_abs);
        push_drift(out, golden, want.allocator, "mux_area", e.mux_area,
                   a.mux_area, area_tol(e.mux_area));
        push_drift(out, golden, want.allocator, "ext_area", e.ext_area,
                   a.ext_area, area_tol(e.ext_area));
    }
    for (const allocator_quality& a : current.allocators) {
        bool known = false;
        for (const allocator_quality& want : golden.allocators) {
            known = known || want.allocator == a.allocator;
        }
        if (!known) {
            push_drift(out, golden, a.allocator, "present", 0.0, 1.0, 0.0);
        }
    }
    return out;
}

table render_drift_table(std::span<const metric_drift> drifts)
{
    table t("allocation-quality drift (golden vs. current)");
    t.header({"scenario", "allocator", "metric", "golden", "current",
              "allowed", "delta"});
    for (const metric_drift& d : drifts) {
        t.row({d.scenario, d.allocator, d.metric, table::num(d.expected, 3),
               table::num(d.actual, 3), table::num(d.allowed, 3),
               table::num(d.actual - d.expected, 3)});
    }
    return t;
}

} // namespace mwl
