// mwl_campaign -- crash-safe design-space-exploration campaign driver.
//
// Expands a declarative campaign spec (scenario set x lambda range x
// hardware-model parameter grid x optional wordlength perturbations, see
// src/campaign/campaign_spec.hpp for the grammar) into a deterministic
// point list, executes it through the batch engine, and records every
// completed point in a checkpointed on-disk store (append-only journal
// with per-record checksums + atomically replaced snapshots). A killed
// campaign -- kill -9, power loss, or the MWL_CRASH_AFTER fault-injection
// countdown -- resumes with `--resume`, skipping completed points and
// re-running only what was in flight; the final result set is
// byte-identical to an uninterrupted run (proven by
// tests/campaign_test.cpp and the CI kill-and-resume soak).
//
// Usage:
//   mwl_campaign --run DIR --spec FILE [--jobs N] [--checkpoint-every N]
//   mwl_campaign --resume DIR [--jobs N] [--checkpoint-every N]
//   mwl_campaign --status DIR
//   mwl_campaign --report DIR [--json FILE] [--csv]
//
// Exit codes: 0 campaign complete, 1 complete with failed points,
// 2 usage/spec/store errors, 3 interrupted (drained + checkpointed).

#include "campaign/campaign_runner.hpp"
#include "campaign/report.hpp"
#include "cli/args.hpp"
#include "support/interrupt.hpp"
#include "support/timer.hpp"

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

namespace {

using namespace mwl;

[[noreturn]] void usage(int code)
{
    (code == 0 ? std::cout : std::cerr) <<
        "usage: mwl_campaign MODE [options]\n"
        "modes (exactly one):\n"
        "  --run DIR --spec FILE  start a campaign in a fresh DIR\n"
        "  --resume DIR           continue a checkpointed campaign\n"
        "  --status DIR           print completion counters\n"
        "  --report DIR           print merged per-scenario Pareto fronts\n"
        "options:\n"
        "  --jobs N               worker threads, at most "
        << cli::max_threads << " [hardware concurrency]\n"
        "  --checkpoint-every N   journal records between snapshots [64]\n"
        "  --json FILE            write the canonical report JSON\n"
        "  --csv                  CSV tables on stdout\n"
        "exit codes: 0 complete, 1 complete with failed points,\n"
        "            2 usage/spec/store error, 3 interrupted\n"
        "crash injection: MWL_CRASH_AFTER=<n> exits (code 96) at the\n"
        "n-th store write; MWL_CRASH_TORN=1 tears that write.\n";
    std::exit(code);
}

struct command_line {
    std::string mode;      ///< run | resume | status | report
    std::string dir;
    std::string spec_file;
    std::size_t jobs = 0;
    std::size_t checkpoint_every = 64;
    std::string json_file;
    bool csv = false;
};

command_line parse_cli(int argc, char** argv)
{
    command_line c;
    cli::args args("mwl_campaign", argc, argv, usage);
    const auto set_mode = [&](const char* mode) {
        if (!c.mode.empty()) {
            args.fail("modes --" + c.mode + " and --" + mode +
                      " are mutually exclusive");
        }
        c.mode = mode;
    };
    while (args.next()) {
        const std::string& arg = args.flag();
        if (arg == "--run") {
            set_mode("run");
            c.dir = args.value();
        } else if (arg == "--resume") {
            set_mode("resume");
            c.dir = args.value();
        } else if (arg == "--status") {
            set_mode("status");
            c.dir = args.value();
        } else if (arg == "--report") {
            set_mode("report");
            c.dir = args.value();
        } else if (arg == "--spec") {
            c.spec_file = args.value();
        } else if (arg == "--jobs") {
            c.jobs = args.threads();
        } else if (arg == "--checkpoint-every") {
            c.checkpoint_every = args.count();
            if (c.checkpoint_every == 0) {
                args.fail("--checkpoint-every must be >= 1");
            }
        } else if (arg == "--json") {
            c.json_file = args.value();
        } else if (arg == "--csv") {
            c.csv = true;
        } else {
            args.unknown();
        }
    }
    if (c.mode.empty()) {
        args.fail("pick a mode: --run, --resume, --status or --report");
    }
    if (c.mode == "run" && c.spec_file.empty()) {
        args.fail("--run needs --spec FILE");
    }
    if (c.mode != "run" && !c.spec_file.empty()) {
        args.fail("--spec only applies to --run");
    }
    return c;
}

void print_table(const table& t, bool csv)
{
    if (csv) {
        t.print_csv(std::cout);
    } else {
        t.print(std::cout);
    }
}

void write_json(const std::string& path, const std::string& json)
{
    if (path.empty()) {
        return;
    }
    std::ofstream out(path);
    if (!out) {
        std::cerr << "mwl_campaign: cannot write " << path << '\n';
        std::exit(2);
    }
    out << json << '\n';
    std::cout << "json written to " << path << '\n';
}

int failed_points(const result_store& store)
{
    int failed = 0;
    for (const auto& [index, result] : store.results()) {
        if (!result.ok()) {
            ++failed;
        }
    }
    return failed;
}

/// Shared by --run and --resume once the store and point list exist.
int execute(const campaign_spec& spec,
            const std::vector<campaign_point>& points, result_store& store,
            const command_line& c)
{
    stopwatch clock;
    campaign_run_options options;
    options.jobs = c.jobs;
    const campaign_run_summary summary =
        run_campaign(spec, points, store, options);
    const double wall = clock.seconds();

    const campaign_status status = status_of(points, store);
    print_table(render_status(status), c.csv);
    std::cout << "\nrun: " << summary.executed << " executed, "
              << summary.already_complete << " resumed from checkpoint, "
              << summary.failed << " failed, "
              << table::num(wall * 1e3, 1) << " ms";
    if (wall > 0.0 && summary.executed > 0) {
        std::cout << ", "
                  << table::num(
                         static_cast<double>(summary.executed) / wall, 1)
                  << " points/s";
    }
    std::cout << '\n';
    const store_load_stats& loaded = store.load_stats();
    if (loaded.dropped_tail) {
        std::cout << "recovered: torn journal tail discarded ("
                  << loaded.tail_error << ")\n";
    }
    if (summary.interrupted) {
        std::cout << "interrupted: " << status.completed << " of "
                  << status.total
                  << " points checkpointed; rerun --resume to finish\n";
        return interrupt_exit_code;
    }
    write_json(c.json_file, report_json(points, store));
    return failed_points(store) == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv)
{
    install_interrupt_handler();
    const command_line c = parse_cli(argc, argv);
    try {
        if (c.mode == "run") {
            std::ifstream in(c.spec_file);
            if (!in) {
                std::cerr << "mwl_campaign: cannot open spec "
                          << c.spec_file << '\n';
                return 2;
            }
            std::ostringstream buffer;
            buffer << in.rdbuf();
            const std::string spec_text = std::move(buffer).str();
            const campaign_spec spec = campaign_spec::parse(spec_text);
            const std::vector<campaign_point> points = expand(spec);
            result_store store = result_store::create(
                c.dir, spec_text, points_fingerprint(points), points.size(),
                c.checkpoint_every);
            return execute(spec, points, store, c);
        }
        if (c.mode == "resume") {
            const std::string spec_text =
                result_store::load_spec_text(c.dir);
            const campaign_spec spec = campaign_spec::parse(spec_text);
            const std::vector<campaign_point> points = expand(spec);
            result_store store = result_store::open(
                c.dir, points_fingerprint(points), c.checkpoint_every);
            return execute(spec, points, store, c);
        }
        if (c.mode == "status") {
            const std::string spec_text =
                result_store::load_spec_text(c.dir);
            const campaign_spec spec = campaign_spec::parse(spec_text);
            const std::vector<campaign_point> points = expand(spec);
            const result_store store = result_store::open(
                c.dir, points_fingerprint(points), c.checkpoint_every);
            const campaign_status status = status_of(points, store);
            print_table(render_status(status), c.csv);
            const store_load_stats& loaded = store.load_stats();
            std::cout << "\nstore: " << loaded.snapshot_records
                      << " snapshot records, " << loaded.journal_records
                      << " journal records, " << loaded.duplicates
                      << " duplicates";
            if (loaded.dropped_tail) {
                std::cout << ", torn tail dropped (" << loaded.tail_error
                          << ")";
            }
            std::cout << '\n'
                      << (status.completed == status.total ? "complete"
                                                           : "incomplete")
                      << ": " << status.completed << " of " << status.total
                      << " points, " << status.failed << " failed\n";
            return 0;
        }
        // --report
        const std::string spec_text = result_store::load_spec_text(c.dir);
        const campaign_spec spec = campaign_spec::parse(spec_text);
        const std::vector<campaign_point> points = expand(spec);
        const result_store store = result_store::open(
            c.dir, points_fingerprint(points), c.checkpoint_every);
        print_table(render_frontiers(merge_scenario_frontiers(points,
                                                              store)),
                    c.csv);
        write_json(c.json_file, report_json(points, store));
        return 0;
    } catch (const error& e) {
        std::cerr << "mwl_campaign: " << e.what() << '\n';
        return 2;
    }
}
