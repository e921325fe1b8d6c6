// Layered benchmark of the allocation stack.
//
//   stackbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: paper_sweep, large_graph, serve_zipf, tune_campaign (see
// README.md for why each exists and what it stresses). --trace 0 measures
// the end-to-end metrics with nothing instrumented; --trace 1 measures
// the per-layer metrics (phase replays, engine and server counters). Both
// modes check the workload's outputs. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}; lines
// before it start with '#' and are for people. Exit status: 0 when every
// output check passed, 1 when one failed, 2 on bad usage.
//
// Run from the root of a source checkout: scratch files (the serve
// socket, campaign stores) live under .bench_build/ there and are
// removed on exit.

#include "common.hpp"
#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <thread>

namespace {

using namespace stackbench;

using workload_fn = void (*)(const run_config&, report&);

const std::map<std::string, workload_fn>& workloads()
{
    static const std::map<std::string, workload_fn> table = {
        {"paper_sweep", run_paper_sweep},
        {"large_graph", run_large_graph},
        {"serve_zipf", run_serve_zipf},
        {"tune_campaign", run_tune_campaign},
    };
    return table;
}

int usage(const std::string& problem)
{
    std::cerr << "stackbench: " << problem
              << "\nusage: stackbench --workload NAME --seed N --seconds S"
                 " --trace 0|1\nworkloads:";
    for (const auto& [name, fn] : workloads()) {
        std::cerr << ' ' << name;
    }
    std::cerr << '\n';
    return 2;
}

/// Removes the run's scratch directory on every exit path.
struct scratch_dir {
    std::filesystem::path path;
    explicit scratch_dir(std::filesystem::path p) : path(std::move(p))
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~scratch_dir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(path, ignored);
    }
    scratch_dir(const scratch_dir&) = delete;
    scratch_dir& operator=(const scratch_dir&) = delete;
};

} // namespace

int main(int argc, char** argv)
{
    run_config config;
    bool have_workload = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            if (i + 1 >= argc) {
                return usage("missing value for " + flag);
            }
            const std::string value = argv[++i];
            if (flag == "--workload") {
                config.workload = value;
                have_workload = workloads().contains(value);
            } else if (flag == "--seed") {
                config.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                config.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") {
                    return usage("--trace takes 0 or 1");
                }
                config.trace = value == "1";
            } else {
                return usage("unknown option " + flag);
            }
        }
    } catch (const std::exception&) {
        return usage("bad numeric value");
    }
    if (!have_workload) {
        return usage("unknown or missing --workload '" + config.workload +
                     "'");
    }
    if (!(config.seconds > 0.0)) {
        return usage("--seconds must be positive");
    }

    // Knobs that make the daemon stall or the store crash on purpose
    // (test fault injection) must not leak in from the environment.
    for (const char* knob :
         {"MWL_SERVE_STALL_MS", "MWL_CRASH_AFTER", "MWL_CRASH_TORN"}) {
        ::unsetenv(knob);
    }
    config.threads = std::clamp<std::size_t>(
        std::thread::hardware_concurrency(), 1, 4);
    const scratch_dir tmp(std::filesystem::path(".bench_build") /
                          ("stackbench-tmp-" + std::to_string(::getpid())));
    config.tmp_dir = tmp.path;

    // Run on one CPU: thread hand-offs (engine worker, campaign pool)
    // become context switches on a running CPU instead of wake-ups of
    // idle virtual CPUs, whose latency on a shared host swings
    // several-fold from minute to minute. serve_zipf moves its server to
    // a second CPU kept busy at idle priority; the traced run widens
    // only its jobs-scaling leg and the parallelism probe.
    const cpu_affinity pinned(cpu_affinity::scope::one);
    report out;
    try {
        workloads().at(config.workload)(config, out);
    } catch (const std::exception& e) {
        std::cerr << "stackbench: " << config.workload
                  << " failed: " << e.what() << '\n';
        return 1;
    }
    if (!config.trace) {
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        // Recorded with every run (traced runs report it as a metric),
        // measured after the timed section so it cannot disturb it.
        out.note("env.effective_parallelism " +
                 std::to_string(effective_parallelism(config.threads)) +
                 " at " + std::to_string(config.threads) + " threads");
    }
    out.note("workload " + config.workload + ", seed " +
             std::to_string(config.seed) + ", threads " +
             std::to_string(config.threads) +
             (config.trace ? ", traced" : ", untraced"));
    out.print_summary(std::cout);
    std::cout << out.json() << std::endl;
    return out.correct() ? 0 : 1;
}
