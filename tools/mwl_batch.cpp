// mwl_batch -- manifest-driven batch allocation and sweep driver.
//
// Reads a manifest describing many allocation jobs -- .mwl graph files
// and/or generated tgff corpora, each with a latency constraint or a
// Pareto sweep range -- and runs them through the batch engine
// (src/engine/) on a work-stealing pool. Emits per-job results as an
// aligned table, JSON, or CSV, plus cache-hit and throughput statistics.
//
// Manifest format (one entry per line; '#' starts a comment):
//
//   graph FILE [lambda=N | slack=PCT | sweep=PCT] [verify=N]
//   corpus ops=N count=N [seed=S] [mul-fraction=F] [min-width=W]
//          [max-width=W] [lambda=N | slack=PCT | sweep=PCT] [verify=N]
//
// `slack=PCT` allocates at ceil(lambda_min*(1+PCT/100)) (default slack=0);
// `sweep=PCT` runs a Pareto sweep over [lambda_min, that bound] instead of
// a single allocation. `verify=N` differentially verifies the entry
// instead of allocating it: every allocator's datapath is checked against
// the bit-true reference and the RTL interpreter (src/verify/) on N random
// signed input vectors; a counterexample fails the run. Corpus entries
// expand to `count` jobs sharing one spec.
//
// Usage:
//   mwl_batch MANIFEST [--jobs N] [--json FILE] [--csv] [--cache N]
//   echo 'corpus ops=8 count=4 sweep=30' | mwl_batch -
//   echo 'corpus ops=8 count=4 verify=16' | mwl_batch -

#include "dfg/analysis.hpp"
#include "engine/batch_engine.hpp"
#include "engine/parallel_pareto.hpp"
#include "io/graph_io.hpp"
#include "model/hardware_model.hpp"
#include "report/table.hpp"
#include "support/interrupt.hpp"
#include "support/json.hpp"
#include "support/parse_num.hpp"
#include "support/timer.hpp"
#include "tgff/corpus.hpp"
#include "verify/differential.hpp"

#include <deque>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using namespace mwl;

[[noreturn]] void usage(int code)
{
    std::cout <<
        "usage: mwl_batch MANIFEST [options]\n"
        "  --jobs N     worker threads [hardware concurrency]\n"
        "  --json FILE  write results + stats as JSON\n"
        "  --csv        CSV on stdout instead of the aligned table\n"
        "  --cache N    result cache capacity [1024]\n"
        "  MANIFEST of '-' reads the manifest from stdin\n"
        "manifest lines:\n"
        "  graph FILE [lambda=N | slack=PCT | sweep=PCT] [verify=N]\n"
        "  corpus ops=N count=N [seed=S] [mul-fraction=F] [min-width=W]\n"
        "         [max-width=W] [lambda=N | slack=PCT | sweep=PCT]\n"
        "         [verify=N]\n"
        "  verify=N cross-checks reference == datapath sim == RTL\n"
        "  interpretation on N random signed input vectors per graph\n"
        "SIGINT/SIGTERM drain in-flight jobs and emit the partial\n"
        "results (exit 3) instead of dying with no output\n";
    std::exit(code);
}

/// What to do with one graph: allocate at a fixed lambda / relaxed slack,
/// sweep the frontier up to a slack bound, or differentially verify the
/// allocators' RTL on random signed inputs.
struct directive {
    std::optional<int> lambda;
    double slack = 0.0;
    std::optional<double> sweep_slack; ///< set = Pareto sweep entry
    std::optional<std::size_t> verify_inputs; ///< set = verification entry
    /// Input-vector seed for verification entries; derived per entry from
    /// the corpus seed (mirroring verify_corpus) so `seed=` in the
    /// manifest changes the inputs too, not just the graphs.
    std::uint64_t verify_seed = 2001;
};

/// One expanded unit of work. Graphs live in the owning deque below;
/// the engine borrows them until drain.
struct work_item {
    std::string name;
    const sequencing_graph* graph = nullptr;
    directive what;
};

/// Throws `precondition_error` on an unparseable number, so manifest
/// errors surface as diagnostics + exit 2, never an uncaught stoi abort.
bool take_directive(const std::string& token, directive& out)
{
    const auto value_of = [&](const char* prefix) -> std::optional<std::string> {
        const std::size_t n = std::string(prefix).size();
        if (token.rfind(prefix, 0) == 0) {
            return token.substr(n);
        }
        return std::nullopt;
    };
    if (const auto v = value_of("lambda=")) {
        out.lambda = parse_int_checked(*v, token);
        return true;
    }
    if (const auto v = value_of("slack=")) {
        out.slack = parse_double_checked(*v, token) / 100.0;
        require(out.slack >= 0.0, "slack must be non-negative");
        return true;
    }
    if (const auto v = value_of("sweep=")) {
        out.sweep_slack = parse_double_checked(*v, token) / 100.0;
        require(*out.sweep_slack >= 0.0, "sweep must be non-negative");
        return true;
    }
    if (const auto v = value_of("verify=")) {
        out.verify_inputs = parse_size_checked(*v, token);
        require(*out.verify_inputs >= 1, "verify needs >= 1 input");
        return true;
    }
    return false;
}

} // namespace

int main(int argc, char** argv)
{
    // First thing, so a ^C during manifest expansion already drains
    // instead of killing the process with no output.
    install_interrupt_handler();

    std::string manifest_file;
    std::size_t jobs = 0;
    std::string json_file;
    bool csv = false;
    std::size_t cache_capacity = 1024;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "mwl_batch: missing value for " << arg << '\n';
                usage(2);
            }
            return argv[++i];
        };
        const auto count_value = [&]() -> std::size_t {
            const std::string text = value();
            try {
                return parse_size_checked(text);
            } catch (const error&) {
                std::cerr << "mwl_batch: bad numeric value '" << text
                          << "' for " << arg << '\n';
                usage(2);
            }
        };
        if (arg == "--jobs") {
            jobs = count_value();
        } else if (arg == "--json") {
            json_file = value();
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--cache") {
            cache_capacity = count_value();
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
            std::cerr << "mwl_batch: unknown option " << arg << '\n';
            usage(2);
        } else {
            manifest_file = arg;
        }
    }
    if (manifest_file.empty()) {
        usage(2);
    }

    try {
        // ---- parse the manifest into owned graphs + work items ----------
        std::ifstream file_in;
        std::istream* in = &std::cin;
        if (manifest_file != "-") {
            file_in.open(manifest_file);
            if (!file_in) {
                std::cerr << "mwl_batch: cannot open " << manifest_file
                          << '\n';
                return 1;
            }
            in = &file_in;
        }

        std::deque<sequencing_graph> graphs; // stable addresses
        std::vector<work_item> items;
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
                std::cerr << "mwl_batch: manifest line " << line_no << ": "
                          << message << '\n';
                std::exit(2);
            };
            try {
            if (keyword == "graph") {
                std::string path;
                if (!(line >> path)) {
                    fail("expected 'graph FILE ...'");
                }
                directive what;
                std::string token;
                while (line >> token) {
                    if (!take_directive(token, what)) {
                        fail("unknown graph token '" + token + "'");
                    }
                }
                require(!(what.sweep_slack && what.verify_inputs),
                        "sweep= and verify= are mutually exclusive");
                std::ifstream gf(path);
                if (!gf) {
                    fail("cannot open graph file " + path);
                }
                graphs.push_back(parse_graph(gf));
                what.verify_seed = verify_input_seed(2001, items.size());
                items.push_back({path, &graphs.back(), what});
            } else if (keyword == "corpus") {
                directive what;
                std::vector<std::string> spec_tokens;
                std::string token;
                while (line >> token) {
                    if (!take_directive(token, what)) {
                        spec_tokens.push_back(token);
                    }
                }
                require(!(what.sweep_slack && what.verify_inputs),
                        "sweep= and verify= are mutually exclusive");
                const corpus_spec spec = corpus_spec::parse(spec_tokens);
                const sonic_model probe; // lambda_min recomputed per job
                std::size_t entry = 0;
                for (corpus_entry& e : make_corpus(spec, probe)) {
                    graphs.push_back(std::move(e.graph));
                    const std::string name =
                        "tgff(ops=" + std::to_string(spec.n_ops) +
                        ",seed=" + std::to_string(spec.seed) + ")#" +
                        std::to_string(items.size());
                    what.verify_seed = verify_input_seed(spec.seed, entry++);
                    items.push_back({name, &graphs.back(), what});
                }
            } else {
                fail("unknown keyword '" + keyword + "'");
            }
            } catch (const error& e) {
                // Directive / corpus-spec / graph-parse problems all carry
                // the manifest line number out through the same exit.
                fail(e.what());
            }
        }
        if (items.empty()) {
            std::cerr << "mwl_batch: manifest has no entries\n";
            return 2;
        }

        // ---- run ---------------------------------------------------------
        const sonic_model model;
        thread_pool pool(jobs);
        batch_options engine_options;
        engine_options.cache_capacity = cache_capacity;
        batch_engine engine(pool, engine_options);

        stopwatch clock;

        // Single-lambda jobs go through the engine (dedup + cache) in
        // bounded chunks, draining between them, so a SIGINT/SIGTERM
        // costs at most one chunk of in-flight work before the partial
        // results are emitted; sweep entries fan out per-lambda subtasks
        // on the same pool afterwards.
        std::vector<std::size_t> job_of_item(items.size(),
                                             static_cast<std::size_t>(-1));
        std::vector<int> lambda_of_item(items.size(), 0);
        std::vector<batch_engine::outcome> outcomes;
        constexpr std::size_t chunk_size = 64;
        std::size_t reached = 0; ///< items whose chunk ran (or was skipped)
        bool interrupted = false;
        while (reached < items.size()) {
            if (interrupt_requested()) {
                interrupted = true;
                break;
            }
            const std::size_t base = outcomes.size();
            std::size_t submitted = 0;
            for (; reached < items.size() && submitted < chunk_size;
                 ++reached) {
                const work_item& item = items[reached];
                if (item.what.sweep_slack) {
                    continue;
                }
                const int lambda =
                    item.what.lambda
                        ? *item.what.lambda
                        : item.graph->empty()
                            ? 0
                            : relaxed_lambda(min_latency(*item.graph, model),
                                             item.what.slack);
                lambda_of_item[reached] = lambda;
                if (item.what.verify_inputs) {
                    continue; // verified on the pool below, at this lambda
                }
                job_of_item[reached] =
                    base + engine.submit(*item.graph, model, lambda);
                ++submitted;
            }
            auto drained = engine.drain();
            outcomes.insert(outcomes.end(),
                            std::make_move_iterator(drained.begin()),
                            std::make_move_iterator(drained.end()));
        }

        // Sweep and verification entries run concurrently across items
        // too: one task per graph on the same pool (sweeps additionally
        // fan per-lambda subtasks). An interrupt stops further launches;
        // already-launched tasks drain through tasks.wait().
        std::vector<std::vector<pareto_point>> fronts(items.size());
        std::vector<verify_report> verifications(items.size());
        std::vector<bool> launched(items.size(), false);
        {
            task_group tasks(pool);
            for (std::size_t i = 0; i < reached; ++i) {
                const work_item& item = items[i];
                if (!item.what.sweep_slack && !item.what.verify_inputs) {
                    continue;
                }
                if (interrupt_requested()) {
                    interrupted = true;
                    break;
                }
                launched[i] = true;
                if (item.what.sweep_slack) {
                    pareto_options sweep;
                    sweep.max_slack = *item.what.sweep_slack;
                    const sequencing_graph* graph = item.graph;
                    std::vector<pareto_point>* slot = &fronts[i];
                    tasks.run([&pool, &model, sweep, graph, slot] {
                        *slot =
                            parallel_pareto_sweep(*graph, model, sweep, pool);
                    });
                } else if (item.what.verify_inputs) {
                    verify_options options;
                    options.inputs_per_graph = *item.what.verify_inputs;
                    options.slack = item.what.slack;
                    const int lambda = lambda_of_item[i];
                    const work_item* work = &item;
                    verify_report* slot = &verifications[i];
                    tasks.run([&model, options, lambda, work, slot] {
                        if (work->graph->empty()) {
                            return; // nothing to verify; report stays ok
                        }
                        try {
                            *slot = verify_graph(*work->graph, work->name,
                                                 model, lambda, options,
                                                 work->what.verify_seed);
                        } catch (const error& e) {
                            // A broken entry (e.g. a graph too wide to
                            // simulate) fails its own row, not the batch.
                            counterexample cx;
                            cx.graph_name = work->name;
                            cx.allocator = "-";
                            cx.stage = "error";
                            cx.detail = e.what();
                            slot->counterexamples.push_back(std::move(cx));
                        }
                    });
                }
            }
            tasks.wait();
        }
        const double wall = clock.seconds();

        // ---- report ------------------------------------------------------
        table t("mwl_batch results");
        t.header({"entry", "kind", "lambda", "latency", "area", "status"});
        std::ostringstream json;
        json << "{\"results\":[";
        bool first = true;
        const auto emit_row = [&](const std::string& name,
                                  const char* kind, int lambda, int latency,
                                  double area, const std::string& status) {
            t.row({name, kind, table::num(lambda), table::num(latency),
                   table::num(area, 1), status});
            json << (first ? "" : ",") << "{\"entry\":\""
                 << json_escape(name) << "\",\"kind\":\"" << kind
                 << "\",\"lambda\":" << lambda << ",\"latency\":" << latency
                 << ",\"area\":" << area << ",\"status\":\""
                 << json_escape(status) << "\"}";
            first = false;
        };
        int failures = 0;
        std::size_t completed_items = 0;
        for (std::size_t i = 0; i < items.size(); ++i) {
            const work_item& item = items[i];
            // On interrupt, entries that never ran get no row: a partial
            // report only contains results that actually exist.
            if (item.what.sweep_slack || item.what.verify_inputs) {
                if (!launched[i]) {
                    continue;
                }
            } else if (i >= reached) {
                continue;
            }
            ++completed_items;
            if (item.what.sweep_slack) {
                if (fronts[i].empty()) {
                    // An empty graph sweeps to an empty frontier; still
                    // give the entry a row so no job vanishes from the
                    // report.
                    emit_row(item.name, "sweep", 0, 0, 0.0, "empty graph");
                    continue;
                }
                for (const pareto_point& p : fronts[i]) {
                    emit_row(item.name, "sweep", p.lambda, p.latency, p.area,
                             "front");
                }
                continue;
            }
            if (item.what.verify_inputs) {
                const verify_report& vr = verifications[i];
                const int lambda = lambda_of_item[i];
                if (vr.ok()) {
                    emit_row(item.name, "verify", lambda, 0, 0.0,
                             "ok (" + std::to_string(vr.value_checks) +
                                 " checks, " +
                                 std::to_string(vr.allocations) +
                                 " allocations)");
                } else {
                    emit_row(item.name, "verify", lambda, 0, 0.0,
                             "counterexample: " +
                                 vr.counterexamples.front().to_string());
                    ++failures;
                }
                continue;
            }
            const batch_engine::outcome& out = outcomes[job_of_item[i]];
            if (!out.ok()) {
                emit_row(item.name, "alloc", lambda_of_item[i], 0, 0.0,
                         "error: " + out.error);
                ++failures;
                continue;
            }
            const std::string status = out.from_cache ? "cached"
                                       : out.coalesced ? "coalesced"
                                                       : "computed";
            emit_row(item.name, "alloc", lambda_of_item[i],
                     out.result->path.latency, out.result->path.total_area,
                     status);
        }

        const batch_stats stats = engine.stats();
        const double throughput =
            wall > 0.0 ? static_cast<double>(items.size()) / wall : 0.0;
        json << "],\"stats\":{\"entries\":" << items.size()
             << ",\"completed_entries\":" << completed_items
             << ",\"interrupted\":" << (interrupted ? "true" : "false")
             << ",\"engine_jobs\":" << stats.submitted
             << ",\"executed\":" << stats.executed
             << ",\"cache_hits\":" << stats.cache_hits
             << ",\"coalesced\":" << stats.coalesced
             << ",\"errors\":" << stats.errors << ",\"pool_threads\":"
             << pool.size() << ",\"wall_seconds\":" << wall
             << ",\"entries_per_second\":" << throughput << "}}";

        if (csv) {
            t.print_csv(std::cout);
        } else {
            t.print(std::cout);
        }
        std::cout << "\nengine: " << stats.submitted << " jobs, "
                  << stats.executed << " executed, " << stats.cache_hits
                  << " cache hits, " << stats.coalesced << " coalesced, "
                  << stats.errors << " errors\n"
                  << "pool: " << pool.size() << " threads, "
                  << table::num(wall * 1e3, 1) << " ms, "
                  << table::num(throughput, 1) << " entries/s\n";
        if (interrupted) {
            std::cout << "interrupted: completed " << completed_items
                      << " of " << items.size() << " entries\n";
        }

        if (!json_file.empty()) {
            std::ofstream out(json_file);
            if (!out) {
                std::cerr << "mwl_batch: cannot write " << json_file << '\n';
                return 1;
            }
            out << json.str() << '\n';
            std::cout << "json written to " << json_file << '\n';
        }
        if (interrupted) {
            return interrupt_exit_code;
        }
        return failures == 0 ? 0 : 1;
    } catch (const error& e) {
        std::cerr << "mwl_batch: " << e.what() << '\n';
        return 1;
    }
}
