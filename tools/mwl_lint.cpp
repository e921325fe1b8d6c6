// mwl_lint -- static value-range / structural linter for allocated RTL.
//
// Allocates every selected workload with each enabled allocator and runs
// the static analyzer (src/analyze/) over the elaborated design: schedule
// re-derivations, structural IR lints, and the abstract-interpretation
// value-range walk that flags truncating slices, zero-extended negatives,
// unsigned multiplier bodies and recycled output registers *without
// executing a single input vector*. The differential harness (mwl_verify)
// proves the same properties by sampling; this tool proves them by
// analysis, orders of magnitude faster per design (see PERF.md).
//
// Usage:
//   mwl_lint fir8 dct8                 # named scenarios
//   mwl_lint --all                     # every registered scenario
//   mwl_lint --corpus --ops 12 --count 50 --seed 7
//   mwl_lint --manifest jobs.txt       # mwl_batch-style manifest
//   mwl_lint --all --mutate unsigned-mul   # soundness harness: expect 1
//
// Exit codes: 0 = clean, 1 = findings reported, 2 = usage error.

#include "dfg/analysis.hpp"
#include "io/graph_io.hpp"
#include "model/hardware_model.hpp"
#include "scenarios/scenarios.hpp"
#include "support/json.hpp"
#include "support/parse_num.hpp"
#include "support/timer.hpp"
#include "verify/differential.hpp"

#include <deque>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace mwl;

[[noreturn]] void usage(int code)
{
    std::cout <<
        "usage: mwl_lint [options] [SCENARIO]...\n"
        "workload selection (combinable):\n"
        "  SCENARIO...       named scenarios (see mwl_scenarios --list)\n"
        "  --all             every registered scenario\n"
        "  --graph FILE      a .mwl graph file (repeatable)\n"
        "  --corpus          a generated TGFF corpus\n"
        "  --manifest FILE   mwl_batch-style manifest ('-' = stdin);\n"
        "                    graph/corpus lines, lambda=/slack= honoured,\n"
        "                    sweep=/verify= ignored\n"
        "corpus knobs (--corpus, like mwl_verify):\n"
        "  --ops N --count N --seed S --mul-fraction F\n"
        "  --min-width W --max-width W\n"
        "allocation / analysis:\n"
        "  --slack PCT       latency relaxation over lambda_min [25]\n"
        "  --no-heuristic / --no-two-stage / --no-descending\n"
        "                    drop an allocator from the checks\n"
        "  --mutate MODE     re-introduce a historical elaboration bug\n"
        "                    (soundness harness; a sound analyzer exits 1):\n"
        "                    operand-zext | capture-zext | unsigned-mul |\n"
        "                    output-recycle\n"
        "  --jobs N          worker threads [hardware concurrency]\n"
        "output:\n"
        "  --json FILE       findings + counters as JSON ('-' = stdout)\n"
        "exit codes: 0 clean, 1 findings, 2 usage error\n";
    std::exit(code);
}

struct lint_item {
    std::string name;
    const sequencing_graph* graph = nullptr;
    std::optional<int> lambda; ///< fixed lambda; unset = relax lambda_min
    double slack = 0.25;
};

} // namespace

int main(int argc, char** argv)
{
    std::vector<std::string> scenario_args;
    std::vector<std::string> graph_files;
    std::string manifest_file;
    bool all_scenarios_flag = false;
    bool use_corpus = false;
    corpus_spec spec;
    spec.n_ops = 10;
    spec.count = 50;
    spec.seed = 2001;
    double slack_pct = 25.0;
    std::string mutate;
    std::string json_file;
    std::size_t jobs = 0;
    verify_options options;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "mwl_lint: missing value for " << arg << '\n';
                usage(2);
            }
            return argv[++i];
        };
        // parse_*_checked (support/parse_num.hpp) rejects malformed,
        // out-of-range and partially numeric values ("4x"), so every bad
        // number lands in the catch below: diagnostic + exit 2, no abort.
        const auto count_value = [&]() -> std::size_t {
            return parse_size_checked(value());
        };
        try {
            if (arg == "--all") {
                all_scenarios_flag = true;
            } else if (arg == "--graph") {
                graph_files.push_back(value());
            } else if (arg == "--manifest") {
                manifest_file = value();
            } else if (arg == "--corpus") {
                use_corpus = true;
            } else if (arg == "--ops") {
                spec.n_ops = count_value();
            } else if (arg == "--count") {
                spec.count = count_value();
            } else if (arg == "--seed") {
                spec.seed = parse_u64_checked(value());
            } else if (arg == "--mul-fraction") {
                spec.prototype.mul_fraction =
                    parse_double_checked(value());
            } else if (arg == "--min-width") {
                spec.prototype.min_width = parse_int_checked(value());
            } else if (arg == "--max-width") {
                spec.prototype.max_width = parse_int_checked(value());
            } else if (arg == "--slack") {
                slack_pct = parse_double_checked(value());
            } else if (arg == "--no-heuristic") {
                options.use_heuristic = false;
            } else if (arg == "--no-two-stage") {
                options.use_two_stage = false;
            } else if (arg == "--no-descending") {
                options.use_descending = false;
            } else if (arg == "--mutate") {
                mutate = value();
            } else if (arg == "--json") {
                json_file = value();
            } else if (arg == "--jobs") {
                jobs = count_value();
            } else if (arg == "--help" || arg == "-h") {
                usage(0);
            } else if (!arg.empty() && arg[0] == '-') {
                std::cerr << "mwl_lint: unknown option " << arg << '\n';
                usage(2);
            } else {
                scenario_args.push_back(arg);
            }
        } catch (const error& e) {
            std::cerr << "mwl_lint: bad value for " << arg << ": "
                      << e.what() << '\n';
            usage(2);
        }
    }
    if (slack_pct < 0.0) {
        std::cerr << "mwl_lint: slack must be non-negative\n";
        usage(2);
    }
    if (!mutate.empty()) {
        if (mutate == "operand-zext") {
            options.elaborate.legacy_operand_extension = true;
        } else if (mutate == "capture-zext") {
            options.elaborate.legacy_capture_extension = true;
        } else if (mutate == "unsigned-mul") {
            options.elaborate.legacy_unsigned_multiply = true;
        } else if (mutate == "output-recycle") {
            options.elaborate.legacy_output_recycling = true;
        } else {
            std::cerr << "mwl_lint: unknown --mutate mode '" << mutate
                      << "'\n";
            usage(2);
        }
    }
    options.slack = slack_pct / 100.0;

    try {
        const sonic_model model;
        thread_pool pool(jobs);
        stopwatch clock;

        // ---- expand the selection into owned graphs + items -------------
        std::deque<sequencing_graph> graphs; // stable addresses
        std::deque<scenario> scenarios;      // keeps scenario graphs alive
        std::vector<lint_item> items;
        const double default_slack = options.slack;

        const auto add_scenario = [&](scenario s) {
            scenarios.push_back(std::move(s));
            items.push_back({scenarios.back().name, &scenarios.back().graph,
                             std::nullopt, default_slack});
        };
        if (all_scenarios_flag) {
            for (scenario& s : all_scenarios()) {
                add_scenario(std::move(s));
            }
        }
        for (const std::string& name : scenario_args) {
            add_scenario(make_scenario(name)); // throws on unknown names
        }
        for (const std::string& path : graph_files) {
            std::ifstream in(path);
            if (!in) {
                std::cerr << "mwl_lint: cannot open " << path << '\n';
                return 2;
            }
            graphs.push_back(parse_graph(in));
            items.push_back({path, &graphs.back(), std::nullopt,
                             default_slack});
        }
        if (use_corpus) {
            std::size_t entry = 0;
            for (corpus_entry& e : make_corpus(spec, model)) {
                graphs.push_back(std::move(e.graph));
                items.push_back(
                    {"tgff(ops=" + std::to_string(spec.n_ops) + ",seed=" +
                         std::to_string(spec.seed) + ")#" +
                         std::to_string(entry++),
                     &graphs.back(), std::nullopt, default_slack});
            }
        }
        if (!manifest_file.empty()) {
            std::ifstream file_in;
            std::istream* in = &std::cin;
            if (manifest_file != "-") {
                file_in.open(manifest_file);
                if (!file_in) {
                    std::cerr << "mwl_lint: cannot open " << manifest_file
                              << '\n';
                    return 2;
                }
                in = &file_in;
            }
            std::string raw;
            std::size_t line_no = 0;
            while (std::getline(*in, raw)) {
                ++line_no;
                std::istringstream line(raw);
                std::string keyword;
                if (!(line >> keyword) || keyword.front() == '#') {
                    continue;
                }
                const auto fail = [&](const std::string& message) {
                    std::cerr << "mwl_lint: manifest line " << line_no
                              << ": " << message << '\n';
                    std::exit(2);
                };
                // lambda=/slack= pick the allocation point; mwl_batch's
                // sweep=/verify= directives are about *dynamic* work and
                // are ignored here so one manifest can drive both tools.
                std::optional<int> lambda;
                double slack = default_slack;
                std::vector<std::string> rest;
                const auto take = [&](const std::string& token) {
                    // checked parse: "lambda=4x" is a line diagnostic,
                    // not a silent lambda=4 (and never an abort).
                    if (token.rfind("lambda=", 0) == 0) {
                        lambda = parse_int_checked(token.substr(7), token);
                    } else if (token.rfind("slack=", 0) == 0) {
                        slack =
                            parse_double_checked(token.substr(6), token) /
                            100.0;
                    } else if (token.rfind("sweep=", 0) == 0 ||
                               token.rfind("verify=", 0) == 0) {
                        // ignored
                    } else {
                        return false;
                    }
                    return true;
                };
                try {
                    if (keyword == "graph") {
                        std::string path;
                        if (!(line >> path)) {
                            fail("expected 'graph FILE ...'");
                        }
                        std::string token;
                        while (line >> token) {
                            if (!take(token)) {
                                fail("unknown graph token '" + token + "'");
                            }
                        }
                        std::ifstream gf(path);
                        if (!gf) {
                            fail("cannot open graph file " + path);
                        }
                        graphs.push_back(parse_graph(gf));
                        items.push_back({path, &graphs.back(), lambda,
                                         slack});
                    } else if (keyword == "corpus") {
                        std::vector<std::string> spec_tokens;
                        std::string token;
                        while (line >> token) {
                            if (!take(token)) {
                                spec_tokens.push_back(token);
                            }
                        }
                        const corpus_spec line_spec =
                            corpus_spec::parse(spec_tokens);
                        std::size_t entry = 0;
                        for (corpus_entry& e :
                             make_corpus(line_spec, model)) {
                            graphs.push_back(std::move(e.graph));
                            items.push_back(
                                {"tgff(ops=" +
                                     std::to_string(line_spec.n_ops) +
                                     ",seed=" +
                                     std::to_string(line_spec.seed) + ")#" +
                                     std::to_string(entry++),
                                 &graphs.back(), lambda, slack});
                        }
                    } else {
                        fail("unknown keyword '" + keyword + "'");
                    }
                } catch (const error& e) {
                    fail(e.what());
                }
            }
        }
        if (items.empty()) {
            std::cerr << "mwl_lint: nothing to lint (give scenario names, "
                         "--all, --graph, --corpus or --manifest)\n";
            usage(2);
        }

        // ---- analyze, one pool task per item -----------------------------
        std::vector<analysis_report> slots(items.size());
        std::size_t designs = 0;
        const auto run_one = [&](std::size_t i) {
            const lint_item& item = items[i];
            verify_options local = options;
            local.slack = item.slack;
            const int lambda =
                item.lambda.value_or(relaxed_lambda(
                    min_latency(*item.graph, model), item.slack));
            slots[i] = static_verify_graph(*item.graph, item.name, model,
                                           lambda, local);
        };
        if (pool.size() > 1 && items.size() > 1) {
            task_group tasks(pool);
            for (std::size_t i = 0; i < items.size(); ++i) {
                tasks.run([&run_one, i] { run_one(i); });
            }
            tasks.wait();
        } else {
            for (std::size_t i = 0; i < items.size(); ++i) {
                run_one(i);
            }
        }

        analysis_report report;
        for (analysis_report& slot : slots) {
            report.merge(std::move(slot));
        }
        const std::size_t allocators =
            static_cast<std::size_t>(options.use_heuristic) +
            static_cast<std::size_t>(options.use_two_stage) +
            static_cast<std::size_t>(options.use_descending);
        designs = items.size() * allocators;
        const double wall = clock.seconds();

        // ---- report -------------------------------------------------------
        // With --json - the machine output owns stdout; the human report
        // moves to stderr so the JSON stream stays parseable.
        std::ostream& text = json_file == "-" ? std::cerr : std::cout;
        text << "mwl_lint: " << items.size() << " graphs, " << designs
             << " designs, " << report.checks << " checks in "
             << static_cast<long long>(wall * 1e3) << " ms";
        if (wall > 0.0) {
            text << " ("
                 << static_cast<long long>(
                        static_cast<double>(designs) / wall)
                 << " designs/s, "
                 << static_cast<long long>(
                        static_cast<double>(report.checks) / wall)
                 << " checks/s, " << pool.size() << " threads)";
        }
        text << '\n';
        for (const finding& f : report.findings) {
            text << "  " << f.to_string() << '\n';
        }
        if (report.truncated) {
            text << "  ... finding list truncated\n";
        }

        if (!json_file.empty()) {
            std::ostringstream json;
            json << "{\"tool\":\"mwl_lint\",\"graphs\":" << items.size()
                 << ",\"designs\":" << designs
                 << ",\"checks\":" << report.checks << ",\"mutate\":\""
                 << json_escape(mutate) << "\",\"truncated\":"
                 << (report.truncated ? "true" : "false")
                 << ",\"findings\":[";
            for (std::size_t i = 0; i < report.findings.size(); ++i) {
                json << (i == 0 ? "" : ",")
                     << report.findings[i].to_json();
            }
            json << "]}\n";
            if (json_file == "-") {
                std::cout << json.str();
            } else {
                std::ofstream out(json_file);
                if (!out) {
                    std::cerr << "mwl_lint: cannot write " << json_file
                              << '\n';
                    return 2;
                }
                out << json.str();
            }
        }

        if (!report.findings.empty()) {
            text << "FINDINGS: " << report.findings.size() << '\n';
            return 1;
        }
        text << "OK: no findings\n";
        return 0;
    } catch (const error& e) {
        std::cerr << "mwl_lint: " << e.what() << '\n';
        return 2;
    }
}
