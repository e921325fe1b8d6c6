#include "workloads.hpp"

#include "replay.hpp"

#include "campaign/campaign_runner.hpp"
#include "campaign/campaign_spec.hpp"
#include "campaign/report.hpp"
#include "campaign/result_store.hpp"
#include "core/validate.hpp"
#include "dfg/analysis.hpp"
#include "engine/batch_engine.hpp"
#include "io/graph_io.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "tgff/corpus.hpp"
#include "tgff/generator.hpp"
#include "verify/differential.hpp"
#include "wordlength/optimizer.hpp"

#include <poll.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

namespace stackbench {

using namespace mwl;

namespace {

/// A stretch of timed work: per-unit latencies, units completed, wall.
struct window {
    std::vector<double> latency_ms;
    double units = 0.0;
    double wall_s = 0.0;
};

/// Every end-to-end metric; each workload sets all of them. Latency and
/// throughput are computed per window and the median over windows is
/// reported, so a burst of machine contention that hits a minority of
/// windows does not move them.
struct end_to_end {
    double setup_s = 0.0;
    std::vector<window> windows;
    double max_rate_rps = 0.0; ///< closed loops: the throughput
    std::size_t attempted = 0;
    std::size_t failed = 0;
    double area_total = 0.0;

    [[nodiscard]] double throughput() const
    {
        std::vector<double> rates;
        for (const window& w : windows) {
            rates.push_back(w.units / w.wall_s);
        }
        return median_of(std::move(rates));
    }
};

void report_end_to_end(const end_to_end& e, const std::string& unit_name,
                       report& out)
{
    std::vector<double> p50;
    std::vector<double> tails;
    for (const window& w : e.windows) {
        p50.push_back(median_of(w.latency_ms));
        tails.push_back(tail_of(w.latency_ms).value);
    }
    out.units(e.attempted, e.failed);
    out.metric("setup_s", e.setup_s, "s");
    out.metric("throughput_per_s", e.throughput(), "units/s");
    out.metric("latency_p50_ms", median_of(p50), "ms");
    out.metric("latency_tail_ms", median_of(tails), "ms");
    out.metric("max_rate_rps", e.max_rate_rps, "req/s");
    out.metric("success_ratio",
               e.attempted == 0
                   ? 0.0
                   : static_cast<double>(e.attempted - e.failed) /
                         static_cast<double>(e.attempted),
               "ratio");
    out.metric("area_total", e.area_total, "area");
    out.note("a unit is one " + unit_name + "; latency_tail_ms: median over " +
             std::to_string(e.windows.size()) + " windows of each window's " +
             describe(tail_of(e.windows.front().latency_ms)) +
             " (first window shown)");
}

/// Build a workload's state. Untraced runs build it three times and keep
/// the median build time as setup_s; each replaced state is torn down
/// outside the timed build.
template <typename Make>
auto set_up(const run_config& config, end_to_end& e, Make make)
    -> decltype(make())
{
    if (config.trace) {
        return make();
    }
    decltype(make()) kept;
    std::vector<double> seconds;
    for (int rep = 0; rep < 3; ++rep) {
        const auto start = bench_clock::now();
        auto fresh = make();
        seconds.push_back(ms_since(start) / 1e3);
        kept = std::move(fresh);
    }
    e.setup_s = median_of(std::move(seconds));
    return kept;
}

/// Per-layer values that are not phase replays. A layer the workload
/// does not drive keeps 0 (documented in the README).
struct layer_values {
    double engine_submitted = 0.0;
    double engine_executed = 0.0;
    double engine_cache_hits = 0.0;
    double engine_coalesced = 0.0;
    double engine_wait_ms_p50 = 0.0;
    double engine_jobs_speedup = 0.0;
    double pool_busy_ratio = 0.0;
    double serve_engine_ms_p50 = 0.0;
    double serve_overhead_ms_p50 = 0.0;
    double serve_busy_rejections = 0.0;
    double serve_gen_lag_ms_p99 = 0.0;
    double wordlength_evaluations = 0.0;
    double wordlength_reused = 0.0;
    double wordlength_search_ms = 0.0;
    double campaign_record_ms = 0.0;
    double campaign_records = 0.0;

    void take_engine(const batch_stats& s)
    {
        engine_submitted = static_cast<double>(s.submitted);
        engine_executed = static_cast<double>(s.executed);
        engine_cache_hits = static_cast<double>(s.cache_hits);
        engine_coalesced = static_cast<double>(s.coalesced);
    }
};

void report_layers(const layer_values& v, double parallelism, report& out)
{
    out.metric("engine.submitted", v.engine_submitted, "count");
    out.metric("engine.executed", v.engine_executed, "count");
    out.metric("engine.cache_hits", v.engine_cache_hits, "count");
    out.metric("engine.coalesced", v.engine_coalesced, "count");
    out.metric("engine.hit_ratio",
               v.engine_submitted > 0.0
                   ? v.engine_cache_hits / v.engine_submitted
                   : 0.0,
               "ratio");
    out.metric("engine.wait_ms_p50", v.engine_wait_ms_p50, "ms");
    out.metric("engine.jobs_speedup", v.engine_jobs_speedup, "ratio");
    out.metric("engine.parallel_efficiency",
               parallelism > 0.0 ? v.engine_jobs_speedup / parallelism : 0.0,
               "ratio");
    out.metric("pool.busy_ratio", v.pool_busy_ratio, "ratio");
    out.metric("env.effective_parallelism", parallelism, "ratio");
    out.metric("serve.engine_ms_p50", v.serve_engine_ms_p50, "ms");
    out.metric("serve.overhead_ms_p50", v.serve_overhead_ms_p50, "ms");
    out.metric("serve.busy_rejections", v.serve_busy_rejections, "count");
    out.metric("serve.gen_lag_ms_p99", v.serve_gen_lag_ms_p99, "ms");
    out.metric("wordlength.evaluations", v.wordlength_evaluations, "count");
    out.metric("wordlength.reuse_ratio",
               v.wordlength_evaluations > 0.0
                   ? v.wordlength_reused / v.wordlength_evaluations
                   : 0.0,
               "ratio");
    out.metric("wordlength.search_ms", v.wordlength_search_ms, "ms");
    out.metric("campaign.record_ms", v.campaign_record_ms, "ms");
    out.metric("campaign.records", v.campaign_records, "count");
}

/// Threads that execute the timed (end-to-end) work and the set-up. On a
/// shared host the cores a virtual machine actually gets swing from
/// minute to minute -- a 4-vCPU VM read env.effective_parallelism from
/// 1.0 to 3.9 within ten minutes -- so a wall-clock figure that needs
/// several cores measures the neighbours, while one executing thread
/// stays within a few percent. Jobs scaling is measured in the traced
/// run instead: engine.jobs_speedup against env.effective_parallelism
/// taken alongside it.
constexpr std::size_t k_timed_threads = 1;

/// One allocation request of a workload: a graph and a latency bound.
struct job {
    const sequencing_graph* graph = nullptr;
    int lambda = 0;
};

/// validate_datapath on every (job, result) pair; returns the number of
/// allocations with findings.
std::size_t count_invalid(const std::vector<job>& jobs,
                          const std::vector<dpalloc_result>& results,
                          const hardware_model& model)
{
    std::size_t invalid = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!validate_datapath(*jobs[i].graph, model, results[i].path,
                               jobs[i].lambda)
                 .empty()) {
            ++invalid;
        }
    }
    return invalid;
}

bool same_path(const datapath& a, const datapath& b)
{
    return a.total_area == b.total_area && a.latency == b.latency &&
           a.start == b.start && a.instance_of_op == b.instance_of_op;
}

/// Phase-attributed replay passes over `jobs`, repeated until `deadline`
/// (at least one pass). Counts repeat exactly per pass; times are summed
/// and reported per pass. An empty `expected` skips the comparison.
struct replay_summary {
    phase_totals totals;
    double passes = 0.0;
    std::vector<double> service_ms; ///< first pass: direct dpalloc time
    std::vector<dpalloc_result> results; ///< first pass: direct results
    std::size_t differ = 0; ///< replays whose result differs from expected
};

replay_summary replay_until(const std::vector<job>& jobs,
                            const std::vector<dpalloc_result>& expected,
                            const hardware_model& model,
                            bench_clock::time_point deadline, report& out)
{
    replay_summary r;
    do {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const double before = r.totals.direct_ms;
            const dpalloc_result got = traced_allocate(
                *jobs[i].graph, model, jobs[i].lambda, r.totals);
            if (!expected.empty()) {
                r.differ += same_path(got.path, expected[i].path) ? 0 : 1;
            }
            if (r.passes == 0.0) {
                r.service_ms.push_back(r.totals.direct_ms - before);
                r.results.push_back(got);
            }
        }
        r.passes += 1.0;
    } while (bench_clock::now() < deadline);
    report_phases(r.totals, r.passes, out);
    out.check(r.differ == 0, std::to_string(r.differ) +
                               " traced allocations differ from the "
                               "untraced results");
    return r;
}

[[nodiscard]] bench_clock::time_point deadline_after(double seconds)
{
    return bench_clock::now() +
           std::chrono::duration_cast<bench_clock::duration>(
               std::chrono::duration<double>(seconds));
}

/// Parallel direct dpalloc over `jobs` (reference precompute).
std::vector<dpalloc_result> allocate_all(const std::vector<job>& jobs,
                                         const hardware_model& model,
                                         std::size_t threads)
{
    std::vector<dpalloc_result> results(jobs.size());
    thread_pool pool(threads);
    task_group group(pool);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        group.run([&, i] {
            results[i] = dpalloc(*jobs[i].graph, model, jobs[i].lambda);
        });
    }
    group.wait();
    return results;
}

// ------------------------------------------------------------ paper_sweep

// The paper's §3 protocol scaled up: default-tgff corpora at |O| = 8..50,
// each graph allocated at 0/10/20/30% relaxation of lambda_min.
constexpr std::size_t k_sweep_sizes[] = {8, 12, 16, 20, 24, 32, 40, 50};
constexpr std::size_t k_sweep_graphs_per_size = 30;
constexpr double k_slacks[] = {0.0, 0.10, 0.20, 0.30};

struct sweep_state {
    std::vector<corpus_entry> corpus;
    std::vector<job> jobs; ///< distinct (graph, lambda), shuffled
    std::vector<dpalloc_result> expected; ///< from the warm-up round
};

struct round_result {
    std::vector<batch_engine::outcome> outcomes;
    std::vector<double> latency_ms; ///< submit -> completion hook
    double wall_ms = 0.0;
    batch_stats stats;
};

/// One pass over every job through a fresh engine of `threads` workers,
/// submitted in waves of the campaign runner's default size. Each wave
/// is awaited on the completion hooks before drain(), so drain() finds
/// it resolved and exactly `threads` pool workers execute jobs (a
/// blocked drain() would lend the calling thread to the pool).
round_result sweep_round(const std::vector<job>& jobs,
                         const hardware_model& model, std::size_t threads)
{
    round_result r;
    r.outcomes.reserve(jobs.size());
    r.latency_ms.reserve(jobs.size());
    const std::size_t wave = std::max<std::size_t>(32, 4 * threads);
    std::vector<bench_clock::time_point> submitted(wave);
    std::vector<bench_clock::time_point> done(wave);
    std::mutex mutex;
    std::condition_variable resolved_cv;
    std::size_t resolved = 0; // guarded by mutex
    const auto start = bench_clock::now();
    batch_engine engine(batch_options{.jobs = threads});
    engine.set_completion_hook(
        [&](std::size_t index, const batch_engine::outcome&) {
            done[index] = bench_clock::now();
            {
                const std::lock_guard<std::mutex> lock(mutex);
                ++resolved;
            }
            resolved_cv.notify_one();
        });
    for (std::size_t base = 0; base < jobs.size(); base += wave) {
        const std::size_t end = std::min(jobs.size(), base + wave);
        for (std::size_t i = base; i < end; ++i) {
            submitted[i - base] = bench_clock::now();
            static_cast<void>(
                engine.submit(*jobs[i].graph, model, jobs[i].lambda));
        }
        {
            std::unique_lock<std::mutex> lock(mutex);
            resolved_cv.wait(lock, [&] { return resolved == end; });
        }
        for (batch_engine::outcome& o : engine.drain()) {
            r.outcomes.push_back(std::move(o));
        }
        for (std::size_t i = base; i < end; ++i) {
            r.latency_ms.push_back(
                ms_between(submitted[i - base], done[i - base]));
        }
    }
    r.stats = engine.stats();
    r.wall_ms = ms_since(start);
    return r;
}

sweep_state make_sweep(std::uint64_t seed, const hardware_model& model,
                       std::size_t threads)
{
    sweep_state s;
    for (const std::size_t n : k_sweep_sizes) {
        std::vector<corpus_entry> part =
            make_corpus(n, k_sweep_graphs_per_size, model, seed);
        for (corpus_entry& e : part) {
            s.corpus.push_back(std::move(e));
        }
    }
    for (const corpus_entry& e : s.corpus) {
        std::set<int> lambdas;
        for (const double slack : k_slacks) {
            lambdas.insert(relaxed_lambda(e.lambda_min, slack));
        }
        for (const int lambda : lambdas) {
            s.jobs.push_back({&e.graph, lambda});
        }
    }
    draw_stream draws(seed ^ 0x5eedULL);
    for (std::size_t i = s.jobs.size(); i > 1; --i) {
        std::swap(s.jobs[i - 1], s.jobs[draws.next() % i]);
    }
    // Warm-up: let lazy set-up and page faults settle; its results are
    // the reference every timed round must reproduce.
    round_result warm = sweep_round(s.jobs, model, threads);
    for (const batch_engine::outcome& o : warm.outcomes) {
        if (!o.ok()) {
            throw error("paper_sweep warm-up allocation failed: " + o.error);
        }
        s.expected.push_back(*o.result);
    }
    return s;
}

/// Post-timing checks: validator on every distinct allocation, and the
/// differential verifier (reference sim = datapath sim = RTL interpreter)
/// on a seeded sample.
void check_sweep(const sweep_state& s, const hardware_model& model,
                 std::uint64_t seed, report& out)
{
    const std::size_t invalid = count_invalid(s.jobs, s.expected, model);
    out.check(invalid == 0, std::to_string(invalid) +
                                " paper_sweep allocations fail "
                                "validate_datapath");
    draw_stream draws(seed ^ 0xd1ffULL);
    rng inputs_rng(seed);
    std::size_t bad = 0;
    constexpr std::size_t sample = 24;
    for (std::size_t k = 0; k < sample; ++k) {
        const std::size_t i = draws.next() % s.jobs.size();
        std::vector<sim_inputs> inputs;
        for (int v = 0; v < 4; ++v) {
            inputs.push_back(random_signed_inputs(*s.jobs[i].graph,
                                                  inputs_rng));
        }
        const verify_report rep =
            verify_datapath(*s.jobs[i].graph, "sweep", "dpalloc",
                            s.expected[i].path, model, inputs);
        bad += rep.ok() ? 0 : 1;
    }
    out.check(bad == 0, std::to_string(bad) + " of " +
                            std::to_string(sample) +
                            " sampled paper_sweep allocations fail "
                            "verify_datapath");
}

} // namespace

void run_paper_sweep(const run_config& config, report& out)
{
    const sonic_model model;
    end_to_end e;
    const std::unique_ptr<sweep_state> state = set_up(config, e, [&] {
        return std::make_unique<sweep_state>(
            make_sweep(config.seed, model, k_timed_threads));
    });
    const sweep_state& s = *state;
    double expected_area = 0.0;
    for (const dpalloc_result& r : s.expected) {
        expected_area += r.path.total_area;
    }
    out.note("paper_sweep: " + std::to_string(s.corpus.size()) +
             " graphs, " + std::to_string(s.jobs.size()) +
             " distinct jobs per round; timed rounds at jobs=" +
             std::to_string(k_timed_threads));

    if (config.trace) {
        const auto deadline = deadline_after(config.seconds);
        layer_values v;
        const round_result parallel = [&] {
            const cpu_affinity everywhere(cpu_affinity::scope::all);
            return sweep_round(s.jobs, model, config.threads);
        }();
        const round_result serial = sweep_round(s.jobs, model, 1);
        v.take_engine(parallel.stats);
        v.engine_jobs_speedup = serial.wall_ms / parallel.wall_ms;
        const replay_summary replayed =
            replay_until(s.jobs, s.expected, model, deadline, out);
        const std::vector<double>& service = replayed.service_ms;
        std::vector<double> wait;
        double busy = 0.0;
        for (std::size_t i = 0; i < s.jobs.size(); ++i) {
            wait.push_back(parallel.latency_ms[i] - service[i]);
            busy += service[i];
        }
        v.engine_wait_ms_p50 = median_of(wait);
        v.pool_busy_ratio =
            busy / (parallel.wall_ms * static_cast<double>(config.threads));
        const double parallelism = effective_parallelism(config.threads);
        report_layers(v, parallelism, out);
        out.note("engine.jobs_speedup = jobs=1 round " +
                 std::to_string(serial.wall_ms) + " ms / jobs=" +
                 std::to_string(config.threads) + " round " +
                 std::to_string(parallel.wall_ms) +
                 " ms, against env.effective_parallelism " +
                 std::to_string(parallelism));
        out.check(replayed.totals.area_total / replayed.passes ==
                          expected_area ||
                      replayed.totals.mismatches != 0,
                  "traced area_total differs from the untraced one");
        out.units(s.jobs.size(), replayed.differ);
        check_sweep(s, model, config.seed, out);
        return;
    }

    std::size_t rounds = 0;
    std::size_t wrong = 0;
    double round_area_drift = 0.0;
    const auto start = bench_clock::now();
    do {
        const round_result r = sweep_round(s.jobs, model, k_timed_threads);
        double area = 0.0;
        for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
            const batch_engine::outcome& o = r.outcomes[i];
            if (!o.ok() || !same_path(o.result->path, s.expected[i].path) ||
                o.from_cache || o.coalesced) {
                ++wrong;
                continue;
            }
            area += o.result->path.total_area;
        }
        round_area_drift = std::max(round_area_drift,
                                    std::abs(area - expected_area));
        e.windows.push_back({r.latency_ms,
                             static_cast<double>(r.outcomes.size()),
                             r.wall_ms / 1e3});
        ++rounds;
    } while (ms_since(start) < config.seconds * 1e3);

    e.attempted = rounds * s.jobs.size();
    e.failed = wrong;
    e.max_rate_rps = e.throughput();
    e.area_total = expected_area;
    out.check(wrong == 0, std::to_string(wrong) +
                              " timed allocations failed or differ from "
                              "the warm-up reference");
    out.check(round_area_drift == 0.0,
              "area_total differs between repetitions");
    out.note("paper_sweep: " + std::to_string(rounds) + " timed rounds");
    report_end_to_end(e, "allocation", out);
    check_sweep(s, model, config.seed, out);
}

// ------------------------------------------------------------ large_graph

namespace {

// The large-graph tier's preset graphs, seeded large_graph_seed_base +
// n + i like the trajectory-pinned identity tests. The set is fixed so
// run-to-run differences are timing, not input drift; --seed rotates
// the order in which the graphs are allocated.
constexpr std::size_t k_large_sizes[] = {300, 350, 400};
constexpr std::size_t k_large_per_size = 1;
constexpr double k_large_slack = 0.10;

struct large_state {
    std::vector<sequencing_graph> graphs;
    std::vector<job> jobs;
};

large_state make_large(std::uint64_t seed, const hardware_model& model)
{
    large_state s;
    for (const std::size_t n : k_large_sizes) {
        for (std::size_t i = 0; i < k_large_per_size; ++i) {
            rng random(large_graph_seed_base + n + i);
            s.graphs.push_back(generate_tgff(large_graph_preset(n), random));
        }
    }
    const std::size_t offset = seed % s.graphs.size();
    for (std::size_t k = 0; k < s.graphs.size(); ++k) {
        const sequencing_graph& g =
            s.graphs[(k + offset) % s.graphs.size()];
        s.jobs.push_back(
            {&g, relaxed_lambda(min_latency(g, model), k_large_slack)});
    }
    // Warm-up: one allocation of the smallest graph settles the
    // allocator's lazy set-up and first-touch page faults.
    static_cast<void>(dpalloc(s.graphs.front(), model,
                              relaxed_lambda(min_latency(s.graphs.front(),
                                                         model),
                                             k_large_slack)));
    return s;
}

} // namespace

void run_large_graph(const run_config& config, report& out)
{
    const sonic_model model;
    end_to_end e;
    const std::unique_ptr<large_state> state = set_up(config, e, [&] {
        return std::make_unique<large_state>(make_large(config.seed, model));
    });
    const large_state& s = *state;

    if (config.trace) {
        const replay_summary replayed = replay_until(
            s.jobs, {}, model, deadline_after(config.seconds), out);
        report_layers(layer_values{}, effective_parallelism(config.threads),
                      out);
        const std::size_t invalid =
            count_invalid(s.jobs, replayed.results, model);
        out.units(s.jobs.size(), invalid);
        out.check(invalid == 0, std::to_string(invalid) +
                                    " large_graph allocations fail "
                                    "validate_datapath");
        return;
    }

    // Whole cycles over the graph set, so every run measures the same
    // mix of graphs.
    std::vector<dpalloc_result> first;
    std::size_t wrong = 0;
    std::size_t cycles = 0;
    const auto start = bench_clock::now();
    do {
        window w;
        const auto cycle_start = bench_clock::now();
        for (std::size_t k = 0; k < s.jobs.size(); ++k) {
            const auto call = bench_clock::now();
            dpalloc_result r = dpalloc(*s.jobs[k].graph, model,
                                       s.jobs[k].lambda);
            w.latency_ms.push_back(ms_since(call));
            if (cycles == 0) {
                first.push_back(std::move(r));
            } else if (!same_path(r.path, first[k].path)) {
                ++wrong;
            }
        }
        w.units = static_cast<double>(s.jobs.size());
        w.wall_s = ms_since(cycle_start) / 1e3;
        e.windows.push_back(std::move(w));
        ++cycles;
    } while (ms_since(start) < config.seconds * 1e3);

    e.attempted = cycles * s.jobs.size();
    e.failed = wrong;
    e.max_rate_rps = e.throughput();
    for (const dpalloc_result& r : first) {
        e.area_total += r.path.total_area;
    }
    out.note("large_graph: " + std::to_string(s.jobs.size()) +
             " graphs x " + std::to_string(cycles) + " cycles, one thread");
    out.check(wrong == 0, std::to_string(wrong) +
                              " repeated allocations differ from the "
                              "first cycle");
    report_end_to_end(e, "allocation", out);
    const std::size_t invalid = count_invalid(s.jobs, first, model);
    out.check(invalid == 0, std::to_string(invalid) +
                                " large_graph allocations fail "
                                "validate_datapath");
}

// ------------------------------------------------------------- serve_zipf

namespace {

// Open loop against an in-process mwl_serve core on a unix socket.
// Requests pick (graph, lambda) pairs with Zipf popularity; the server's
// LRU holds fewer entries than there are pairs, so most requests hit
// and a steady share misses and executes. Some requests arrive as
// bursts of identical frames (coalescing), and a small share asks for
// lambda < lambda_min, which must be answered with `error`. The graphs
// and their popularity ranking are fixed, so run-to-run differences are
// timing, not which graphs happen to be popular; --seed draws the
// traffic (which pair each request asks for, bursts, infeasible asks).
constexpr std::size_t k_serve_sizes[] = {8, 12, 16, 20, 24};
constexpr std::size_t k_serve_graphs_per_size = 100;
constexpr std::uint64_t k_serve_corpus_seed = 0x5e77eULL;
constexpr double k_zipf_exponent = 1.0;
constexpr double k_burst_share = 0.02;
constexpr int k_burst_len = 4;
constexpr double k_infeasible_share = 0.01;
constexpr std::size_t k_serve_cache = 512;
// Offered rates, lowest first, visited in interleaved windows of a fixed
// length (one window per rate per round, each drained before the next;
// --seconds sets the number of rounds) so a contention burst on the
// machine lands on every rate alike. Latency and throughput are reported
// at the lowest (reference) rate: with one server CPU, the higher rates
// queue requests behind misses, which multiplies any drift in the
// machine's speed into the tail. max_rate_rps is the highest rate whose
// median window tail meets the limit.
constexpr double k_serve_rates[] = {1000.0, 2000.0, 4000.0};
constexpr std::size_t k_reference_rate = 0;
constexpr double k_serve_window_s = 0.125;
constexpr double k_tail_limit_ms = 25.0;
constexpr double k_drain_timeout_s = 10.0;

struct serve_key {
    std::size_t graph = 0;
    int lambda = 0;
    bool feasible = true;
};

struct scheduled {
    double offset_s = 0.0;
    std::size_t key = 0;
};

struct request_record {
    bench_clock::time_point due;
    bench_clock::time_point sent;
    bench_clock::time_point received;
    bool answered = false;
    serve::response response;
};

struct serve_state {
    std::vector<corpus_entry> corpus;
    std::vector<std::string> graph_text;
    std::vector<serve_key> keys; ///< feasible keys, then infeasible ones
    std::size_t feasible_keys = 0;
    std::vector<double> zipf_cdf; ///< over feasible keys by popularity rank
    std::vector<std::size_t> rank_to_key;
    std::vector<scheduled> warmup;
    /// windows[round][rate]: the timed schedule.
    std::vector<std::vector<std::vector<scheduled>>> windows;
    std::vector<job> reference_jobs;           ///< requested feasible keys
    std::vector<std::size_t> reference_of_key; ///< index or npos
    std::vector<dpalloc_result> reference;

    std::filesystem::path socket;
    std::unique_ptr<serve::server> server;
    std::atomic<bool> stop{false};
    std::thread server_thread;
    /// Spins at idle priority on the server's CPU so that CPU never
    /// halts: a request then wakes a server thread on a running CPU.
    std::thread keeper;
    std::atomic<bool> stop_keeper{false};
    std::vector<std::unique_ptr<serve::client_connection>> conns;
    std::uint64_t next_id = 0; ///< next request id on the wire

    serve_state() = default;
    serve_state(const serve_state&) = delete;
    serve_state& operator=(const serve_state&) = delete;
    ~serve_state()
    {
        stop_keeper.store(true);
        if (keeper.joinable()) {
            keeper.join();
        }
        conns.clear();
        if (server_thread.joinable()) {
            stop.store(true);
            server_thread.join();
        }
        server.reset();
    }
};

std::size_t draw_key(const serve_state& s, draw_stream& draws)
{
    if (draws.unit() < k_infeasible_share) {
        return s.feasible_keys +
               draws.next() % (s.keys.size() - s.feasible_keys);
    }
    const double u = draws.unit();
    const auto it = std::upper_bound(s.zipf_cdf.begin(), s.zipf_cdf.end(), u);
    const std::size_t rank = std::min<std::size_t>(
        static_cast<std::size_t>(it - s.zipf_cdf.begin()),
        s.zipf_cdf.size() - 1);
    return s.rank_to_key[rank];
}

std::vector<scheduled> make_schedule(const serve_state& s, double rate,
                                     double seconds, draw_stream& draws)
{
    std::vector<scheduled> out;
    const auto count =
        std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
    for (std::size_t i = 0; i < count; ++i) {
        const double t = static_cast<double>(i) / rate;
        const std::size_t key = draw_key(s, draws);
        const int copies = draws.unit() < k_burst_share ? k_burst_len : 1;
        for (int c = 0; c < copies; ++c) {
            out.push_back({t, key});
        }
    }
    return out;
}

/// Send `plan` on its schedule round-robin over the connections and
/// collect the responses on the same thread: while it waits for the next
/// due time it reads whatever has arrived. Returns once every request is
/// answered or the drain timeout passes. Request ids continue across
/// calls, so a straggler from an earlier window is never mistaken for an
/// answer in this one.
std::vector<request_record> run_step(serve_state& s,
                                     const std::vector<scheduled>& plan)
{
    const std::uint64_t id_base = s.next_id;
    s.next_id += plan.size();
    std::vector<request_record> records(plan.size());
    std::size_t received = 0;
    std::vector<pollfd> fds;
    for (const auto& c : s.conns) {
        fds.push_back({c->fd(), POLLIN, 0});
    }
    // Read every response that has arrived, without waiting.
    const auto collect = [&] {
        while (::poll(fds.data(), fds.size(), 0) > 0) {
            for (std::size_t c = 0; c < fds.size(); ++c) {
                if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
                    continue;
                }
                std::optional<serve::response> r = s.conns[c]->receive();
                if (!r) {
                    fds[c].fd = -1; // server closed this stream
                    continue;
                }
                const auto now = bench_clock::now();
                const std::uint64_t slot = r->id - id_base; // wraps if older
                if (slot < records.size() && !records[slot].answered) {
                    request_record& rec = records[slot];
                    rec.received = now;
                    rec.response = std::move(*r);
                    rec.answered = true;
                    ++received;
                }
            }
        }
    };

    const auto origin = bench_clock::now() + std::chrono::milliseconds(5);
    for (std::size_t i = 0; i < plan.size(); ++i) {
        request_record& rec = records[i];
        rec.due = origin + std::chrono::duration_cast<bench_clock::duration>(
                               std::chrono::duration<double>(
                                   plan[i].offset_s));
        // Poll and yield instead of sleeping: the client's CPU never
        // idles -- waking an idle virtual CPU costs a host-dependent
        // delay that would land in every latency -- and on a machine
        // with one CPU the server's threads still run whenever they are
        // ready.
        while (bench_clock::now() < rec.due) {
            collect();
            std::this_thread::yield();
        }
        rec.sent = bench_clock::now();
        const serve_key& key = s.keys[plan[i].key];
        static_cast<void>(s.conns[i % s.conns.size()]->send(
            serve::format_alloc_request(id_base + i, key.lambda, 0.0,
                                        s.graph_text[key.graph])));
    }
    const auto deadline =
        bench_clock::now() + std::chrono::duration_cast<bench_clock::duration>(
                                 std::chrono::duration<double>(
                                     k_drain_timeout_s));
    while (received < records.size() && bench_clock::now() < deadline) {
        collect();
        std::this_thread::yield();
    }
    return records;
}

std::unique_ptr<serve_state> make_serve(const run_config& config,
                                        std::size_t rounds,
                                        const hardware_model& model)
{
    auto s = std::make_unique<serve_state>();
    for (const std::size_t n : k_serve_sizes) {
        std::vector<corpus_entry> part =
            make_corpus(n, k_serve_graphs_per_size, model, k_serve_corpus_seed);
        for (corpus_entry& e : part) {
            s->corpus.push_back(std::move(e));
        }
    }
    for (std::size_t g = 0; g < s->corpus.size(); ++g) {
        s->graph_text.push_back(write_graph(s->corpus[g].graph));
        std::set<int> lambdas;
        for (const double slack : k_slacks) {
            lambdas.insert(relaxed_lambda(s->corpus[g].lambda_min, slack));
        }
        for (const int lambda : lambdas) {
            s->keys.push_back({g, lambda, true});
        }
    }
    s->feasible_keys = s->keys.size();
    for (std::size_t g = 0; g < s->corpus.size(); ++g) {
        s->keys.push_back({g, s->corpus[g].lambda_min - 1, false});
    }

    draw_stream ranking(k_serve_corpus_seed);
    s->rank_to_key.resize(s->feasible_keys);
    for (std::size_t k = 0; k < s->feasible_keys; ++k) {
        s->rank_to_key[k] = k;
    }
    for (std::size_t i = s->feasible_keys; i > 1; --i) {
        std::swap(s->rank_to_key[i - 1], s->rank_to_key[ranking.next() % i]);
    }
    double sum = 0.0;
    for (std::size_t r = 0; r < s->feasible_keys; ++r) {
        sum += 1.0 / std::pow(static_cast<double>(r + 1), k_zipf_exponent);
        s->zipf_cdf.push_back(sum);
    }
    for (double& c : s->zipf_cdf) {
        c /= sum;
    }
    // Warm-up traffic (same distribution, its own draws) first, then the
    // timed steps.
    draw_stream draws(config.seed ^ 0x21bfULL);
    s->warmup = make_schedule(*s, 8000.0, 2.0 * k_serve_cache / 8000.0,
                              draws);
    s->windows.resize(rounds);
    for (auto& round : s->windows) {
        for (const double rate : k_serve_rates) {
            round.push_back(
                make_schedule(*s, rate, k_serve_window_s, draws));
        }
    }

    // Reference: a direct allocation for every feasible key requested.
    s->reference_of_key.assign(s->keys.size(), static_cast<std::size_t>(-1));
    std::vector<const std::vector<scheduled>*> plans{&s->warmup};
    for (const auto& round : s->windows) {
        for (const auto& plan : round) {
            plans.push_back(&plan);
        }
    }
    for (const std::vector<scheduled>* plan : plans) {
        for (const scheduled& q : *plan) {
            const serve_key& key = s->keys[q.key];
            if (key.feasible && s->reference_of_key[q.key] ==
                                    static_cast<std::size_t>(-1)) {
                s->reference_of_key[q.key] = s->reference_jobs.size();
                s->reference_jobs.push_back(
                    {&s->corpus[key.graph].graph, key.lambda});
            }
        }
    }
    s->reference = allocate_all(s->reference_jobs, model, k_timed_threads);

    // A fresh path per build: the previous server is still listening
    // while its replacement binds.
    static std::size_t builds = 0;
    s->socket =
        config.tmp_dir / ("serve" + std::to_string(builds++) + ".sock");
    serve::server_options options;
    options.unix_path = s->socket.string();
    options.jobs = k_timed_threads;
    options.cache_capacity = k_serve_cache;
    // Admission bounds well above the offered load: this workload
    // measures latency below saturation, so a busy answer is a failure.
    options.queue_depth = 4096;
    options.max_inflight = 4096;
    // The server's threads share a second CPU, so a request never waits
    // for the client to give up its CPU and the client sends on time.
    {
        const cpu_affinity server_cpu(cpu_affinity::scope::other);
        s->server = std::make_unique<serve::server>(options);
        s->server_thread = std::thread([st = s.get()] {
            st->server->run([st] { return st->stop.load(); });
        });
        s->keeper = std::thread([st = s.get()] {
            const sched_param idle{};
            static_cast<void>(::sched_setscheduler(0, SCHED_IDLE, &idle));
            while (!st->stop_keeper.load(std::memory_order_relaxed)) {
            }
        });
    }
    const serve::endpoint ep{.what = serve::endpoint::kind::unix_socket,
                             .path = s->socket.string()};
    for (std::size_t c = 0; c < k_timed_threads; ++c) {
        s->conns.push_back(std::make_unique<serve::client_connection>(ep));
    }
    static_cast<void>(run_step(*s, s->warmup));
    return s;
}

/// Outcome of one timed step, checked against the reference.
struct step_summary {
    std::vector<double> latency_ms; ///< scheduled send -> response
    std::vector<double> lag_ms;     ///< actual send - scheduled send
    std::size_t failed = 0;
    bool backlog_growing = false;
    double wall_ms = 0.0; ///< first scheduled send -> last response
    std::size_t completed = 0; ///< correct answers (ok or expected error)
    double engine_p50_ms = 0.0;
    std::vector<double> overhead_ms; ///< latency - server micros
    /// Requests the engine executed (neither cached nor coalesced):
    /// (reference index, server micros in ms).
    std::vector<std::pair<std::size_t, double>> executed;
};

step_summary summarize_step(const serve_state& s,
                            const std::vector<scheduled>& plan,
                            const std::vector<request_record>& records,
                            report& out)
{
    step_summary sum;
    std::size_t wrong = 0;
    std::vector<double> engine_ms;
    bench_clock::time_point first_due = records.front().due;
    bench_clock::time_point last_received = first_due;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const request_record& rec = records[i];
        sum.lag_ms.push_back(ms_between(rec.due, rec.sent));
        const serve_key& key = s.keys[plan[i].key];
        if (!rec.answered) {
            ++sum.failed;
            continue;
        }
        last_received = std::max(last_received, rec.received);
        const double latency = ms_between(rec.due, rec.received);
        sum.latency_ms.push_back(latency);
        const serve::response& r = rec.response;
        if (r.what == serve::response::status::busy) {
            ++sum.failed;
            continue;
        }
        if (!key.feasible) {
            if (r.what == serve::response::status::error) {
                ++sum.completed;
            } else {
                ++wrong;
            }
            continue;
        }
        const datapath& ref =
            s.reference[s.reference_of_key[plan[i].key]].path;
        if (r.what != serve::response::status::ok || r.lambda != key.lambda ||
            r.latency != ref.latency || r.area != ref.total_area) {
            ++wrong;
            continue;
        }
        ++sum.completed;
        engine_ms.push_back(r.micros / 1e3);
        sum.overhead_ms.push_back(latency - r.micros / 1e3);
        if (!r.cached && !r.coalesced) {
            sum.executed.emplace_back(s.reference_of_key[plan[i].key],
                                      r.micros / 1e3);
        }
    }
    sum.failed += wrong;
    out.check(wrong == 0, std::to_string(wrong) +
                              " serve responses differ from the direct "
                              "allocation or expected error");
    // Backlog: the median latency of the last fifth of the step against
    // the first fifth.
    const std::size_t fifth = sum.latency_ms.size() / 5;
    if (fifth > 0) {
        std::vector<double> head(sum.latency_ms.begin(),
                                 sum.latency_ms.begin() + fifth);
        std::vector<double> tail(sum.latency_ms.end() - fifth,
                                 sum.latency_ms.end());
        sum.backlog_growing =
            median_of(std::move(tail)) > 2.0 * median_of(std::move(head)) + 1.0;
    }
    sum.wall_ms = ms_between(first_due, last_received);
    sum.engine_p50_ms = median_of(std::move(engine_ms));
    return sum;
}

} // namespace

void run_serve_zipf(const run_config& config, report& out)
{
    const sonic_model model;
    const double round_s =
        static_cast<double>(std::size(k_serve_rates)) * k_serve_window_s;
    const auto rounds = std::max<std::size_t>(
        3, static_cast<std::size_t>(std::llround(config.seconds / round_s)));
    end_to_end e;
    const std::unique_ptr<serve_state> state = set_up(
        config, e, [&] { return make_serve(config, rounds, model); });
    serve_state& s = *state;

    const engine_stats before = s.server->engine_snapshot();
    const serve::server_counters counters_before = s.server->counters();
    constexpr std::size_t n_rates = std::size(k_serve_rates);
    std::vector<std::vector<step_summary>> by_rate(n_rates);
    std::size_t attempted = 0;
    for (std::size_t k = 0; k < rounds; ++k) {
        for (std::size_t j = 0; j < n_rates; ++j) {
            const std::size_t rate = (j + k) % n_rates;
            const std::vector<scheduled>& plan = s.windows[k][rate];
            const std::vector<request_record> records = run_step(s, plan);
            by_rate[rate].push_back(summarize_step(s, plan, records, out));
            attempted += plan.size();
        }
    }
    const engine_stats after = s.server->engine_snapshot();
    const serve::server_counters counters_after = s.server->counters();

    std::vector<double> lag;
    for (std::size_t rate = 0; rate < n_rates; ++rate) {
        std::vector<double> p50;
        std::vector<double> tails;
        std::size_t failed = 0;
        std::size_t growing = 0;
        for (const step_summary& st : by_rate[rate]) {
            lag.insert(lag.end(), st.lag_ms.begin(), st.lag_ms.end());
            p50.push_back(median_of(st.latency_ms));
            tails.push_back(tail_of(st.latency_ms).value);
            failed += st.failed;
            growing += st.backlog_growing ? 1 : 0;
        }
        e.failed += failed;
        const double tail = median_of(tails);
        const bool meets = tail <= k_tail_limit_ms && failed == 0 &&
                           2 * growing < by_rate[rate].size();
        if (meets) {
            e.max_rate_rps = std::max(e.max_rate_rps, k_serve_rates[rate]);
        }
        out.note("serve_zipf @" + std::to_string(k_serve_rates[rate]) +
                 " req/s: p50 " + std::to_string(median_of(p50)) +
                 " ms, tail " + std::to_string(tail) + " ms (median of " +
                 std::to_string(tails.size()) + " windows' " +
                 describe(tail_of(by_rate[rate].front().latency_ms)) +
                 "), failed " + std::to_string(failed) + ", backlog growing in " +
                 std::to_string(growing) + " windows, " +
                 (meets ? "meets" : "misses") + " the " +
                 std::to_string(k_tail_limit_ms) + " ms limit");
    }
    std::sort(lag.begin(), lag.end());
    out.note("serve_zipf generator lag p99 " +
             std::to_string(quantile_sorted(lag, 0.99)) + " ms");

    const std::vector<step_summary>& reference = by_rate[k_reference_rate];
    if (config.trace) {
        layer_values v;
        v.engine_submitted =
            static_cast<double>(after.submitted - before.submitted);
        v.engine_executed =
            static_cast<double>(after.executed - before.executed);
        v.engine_cache_hits =
            static_cast<double>(after.cache_hits - before.cache_hits);
        v.engine_coalesced =
            static_cast<double>(after.coalesced - before.coalesced);
        std::vector<double> engine_p50;
        std::vector<double> overhead;
        for (const step_summary& st : reference) {
            engine_p50.push_back(st.engine_p50_ms);
            overhead.insert(overhead.end(), st.overhead_ms.begin(),
                            st.overhead_ms.end());
        }
        v.serve_engine_ms_p50 = median_of(std::move(engine_p50));
        v.serve_overhead_ms_p50 = median_of(std::move(overhead));
        v.serve_busy_rejections = static_cast<double>(
            counters_after.rejected_busy - counters_before.rejected_busy);
        v.serve_gen_lag_ms_p99 = quantile_sorted(lag, 0.99);

        const replay_summary replayed =
            replay_until(s.reference_jobs, s.reference, model,
                         bench_clock::now(), out);
        // Engine wait: time inside engine.run beyond the job's serial
        // service time; pool busy: serial service of every executed
        // request over the steps' wall time and threads.
        std::vector<double> wait;
        double busy_ms = 0.0;
        double wall_ms = 0.0;
        for (const std::vector<step_summary>& windows : by_rate) {
            for (const step_summary& st : windows) {
                wall_ms += st.wall_ms;
                for (const auto& [ref, micros_ms] : st.executed) {
                    wait.push_back(micros_ms - replayed.service_ms[ref]);
                    busy_ms += replayed.service_ms[ref];
                }
            }
        }
        v.engine_wait_ms_p50 = median_of(std::move(wait));
        v.pool_busy_ratio =
            busy_ms / (wall_ms * static_cast<double>(k_timed_threads));
        report_layers(v, effective_parallelism(config.threads), out);
        out.units(attempted, e.failed);
    } else {
        e.attempted = attempted;
        for (const step_summary& st : reference) {
            e.windows.push_back(
                {st.latency_ms, static_cast<double>(st.completed),
                 st.wall_ms / 1e3});
        }
        for (const dpalloc_result& r : s.reference) {
            e.area_total += r.path.total_area;
        }
        report_end_to_end(e, "request", out);
    }
    out.check(e.failed == 0, std::to_string(e.failed) +
                                 " serve requests failed (busy, lost or "
                                 "wrong)");
    const std::size_t invalid =
        count_invalid(s.reference_jobs, s.reference, model);
    out.check(invalid == 0, std::to_string(invalid) +
                                " serve allocations fail validate_datapath");
}

// ---------------------------------------------------------- tune_campaign

namespace {

// run_campaign over a spec with a `tune` line: scenarios x perturbation
// variants x slacks x a budget list. The optimizer's neighbour sweeps
// share one engine cache per campaign; every repetition writes a fresh
// store (journal + fsync per point). The grid is fixed -- perturbed
// variants differ enough in tuning cost that seeding them would swamp
// timing changes -- and --seed rotates the scenario order, which changes
// how the campaign's waves pack the points.
constexpr const char* k_tune_scenarios[] = {
    "fir8", "fir16", "iir_biquad2", "lattice4", "polyphase_dec2",
    "rgb2ycbcr"};

std::string tune_spec_text(std::uint64_t seed)
{
    std::ostringstream spec;
    spec << "scenario";
    const std::size_t n = std::size(k_tune_scenarios);
    for (std::size_t k = 0; k < n; ++k) {
        spec << ' ' << k_tune_scenarios[(k + seed) % n];
    }
    spec << "\nlambda slack=0..10 step=10\n"
         << "perturb count=1 flips=2 seed=2001\n"
         << "tune budget=1e-6,9.7e-7,9.4e-7,9.1e-7 min-frac=2 max-frac=24"
         << " seed=2001 max-steps=32 anneal=0\n";
    return spec.str();
}

constexpr std::size_t k_campaigns_per_window = 5;

struct tune_state {
    std::string spec_text;
    campaign_spec spec;
    std::vector<campaign_point> points;
    std::uint64_t fingerprint = 0;
    std::string reference_report;
    std::map<std::size_t, point_result> reference_results;
    std::size_t next_dir = 0;
};

struct campaign_outcome {
    campaign_run_summary summary;
    std::string report;
    std::map<std::size_t, point_result> results;
};

campaign_outcome run_one_campaign(tune_state& s, const run_config& config)
{
    const std::filesystem::path dir =
        config.tmp_dir / ("campaign" + std::to_string(s.next_dir++));
    campaign_outcome o;
    {
        result_store store = result_store::create(
            dir, s.spec_text, s.fingerprint, s.points.size());
        o.summary = run_campaign(s.spec, s.points, store,
                                 campaign_run_options{.jobs = k_timed_threads});
        o.report = report_json(s.points, store);
        o.results = store.results();
    }
    std::filesystem::remove_all(dir);
    return o;
}

std::unique_ptr<tune_state> make_tune(const run_config& config)
{
    auto s = std::make_unique<tune_state>();
    s->spec_text = tune_spec_text(config.seed);
    s->spec = campaign_spec::parse(s->spec_text);
    s->points = expand(s->spec);
    s->fingerprint = points_fingerprint(s->points);
    // Warm-up repetition; its canonical report is the reference.
    campaign_outcome warm = run_one_campaign(*s, config);
    s->reference_report = std::move(warm.report);
    s->reference_results = std::move(warm.results);
    return s;
}

/// The campaign's tuning path, one point at a time on one shared engine
/// (public API only), re-allocating each point's tuned graph to check it.
struct point_check {
    std::size_t invalid = 0;
    std::size_t differ = 0;
    std::vector<job> jobs;
    std::vector<dpalloc_result> results;
    std::vector<std::unique_ptr<sequencing_graph>> graphs;
};

point_check tune_points(const tune_state& s, const run_config& config,
                        layer_values& v)
{
    point_check pc;
    std::map<std::string, tune_problem> problems;
    batch_engine engine(batch_options{.jobs = k_timed_threads,
                                      .cache_capacity = 1024});
    for (const campaign_point& p : s.points) {
        const std::string gkey = p.scenario + "/v" + std::to_string(p.variant);
        if (!problems.contains(gkey)) {
            problems.emplace(gkey,
                             make_tune_problem(make_variant_graph(
                                 s.spec, p.scenario, p.variant)));
        }
        const tune_problem& problem = problems.at(gkey);
        const sonic_model model(p.adder_latency, p.mul_bits_per_cycle);
        optimizer_options search;
        search.noise.budget = p.budget;
        search.noise.min_frac_bits = s.spec.tune_min_frac;
        search.noise.max_frac_bits = s.spec.tune_max_frac;
        search.slack = p.slack_percent / 100.0;
        search.seed = s.spec.tune_seed;
        search.max_steps = s.spec.tune_max_steps;
        search.anneal_iterations = s.spec.tune_anneal;
        const auto start = bench_clock::now();
        const tune_result tuned =
            optimize_wordlengths(problem, model, search, engine);
        v.wordlength_search_ms += ms_since(start);
        v.wordlength_evaluations +=
            static_cast<double>(tuned.stats.evaluations);
        v.wordlength_reused += static_cast<double>(tuned.stats.reused);

        pc.graphs.push_back(std::make_unique<sequencing_graph>(
            apply_frac_bits(problem, tuned.best.frac_bits)));
        const job j{pc.graphs.back().get(), tuned.best.lambda};
        dpalloc_result r = dpalloc(*j.graph, model, j.lambda);
        pc.invalid +=
            validate_datapath(*j.graph, model, r.path, j.lambda).empty() ? 0
                                                                          : 1;
        const auto it = s.reference_results.find(p.index);
        if (it == s.reference_results.end() || !it->second.ok() ||
            it->second.lambda != j.lambda ||
            it->second.latency != r.path.latency ||
            it->second.area != r.path.total_area) {
            ++pc.differ;
        }
        pc.jobs.push_back(j);
        pc.results.push_back(std::move(r));
    }
    v.take_engine(engine.stats());
    return pc;
}

void check_points(const point_check& pc, report& out)
{
    out.check(pc.invalid == 0, std::to_string(pc.invalid) +
                                   " tuned allocations fail "
                                   "validate_datapath");
    out.check(pc.differ == 0,
              std::to_string(pc.differ) +
                  " campaign points differ from a direct re-tune and "
                  "re-allocation");
}

} // namespace

void run_tune_campaign(const run_config& config, report& out)
{
    end_to_end e;
    const std::unique_ptr<tune_state> state =
        set_up(config, e, [&] { return make_tune(config); });
    tune_state& s = *state;
    std::size_t reference_failed = 0;
    double area = 0.0;
    for (const auto& [index, r] : s.reference_results) {
        reference_failed += r.ok() ? 0 : 1;
        area += r.area;
    }
    out.check(s.reference_results.size() == s.points.size() &&
                  reference_failed == 0,
              "warm-up campaign did not complete every point");
    out.note("tune_campaign: " + std::to_string(s.points.size()) +
             " points per campaign");

    if (config.trace) {
        const auto deadline = deadline_after(config.seconds);
        layer_values v;
        point_check pc = tune_points(s, config, v);
        check_points(pc, out);
        // Campaign layer: replay the finished results into a fresh store.
        const std::filesystem::path dir = config.tmp_dir / "record-replay";
        {
            result_store store = result_store::create(
                dir, s.spec_text, s.fingerprint, s.points.size());
            const auto start = bench_clock::now();
            for (const auto& [index, r] : s.reference_results) {
                store.record(r);
            }
            store.flush_checkpoint();
            v.campaign_record_ms = ms_since(start);
            v.campaign_records =
                static_cast<double>(s.reference_results.size());
        }
        std::filesystem::remove_all(dir);

        const sonic_model model(s.spec.adder_latencies.front(),
                                s.spec.mul_bits_per_cycle.front());
        static_cast<void>(
            replay_until(pc.jobs, pc.results, model, deadline, out));
        report_layers(v, effective_parallelism(config.threads), out);
        out.units(s.points.size(), pc.invalid + pc.differ);
        return;
    }

    std::size_t reps = 0;
    std::size_t failed = 0;
    std::size_t report_drift = 0;
    const auto start = bench_clock::now();
    do {
        window w;
        for (std::size_t k = 0; k < k_campaigns_per_window; ++k) {
            const auto call = bench_clock::now();
            const campaign_outcome o = run_one_campaign(s, config);
            w.latency_ms.push_back(ms_since(call));
            failed +=
                o.summary.failed + (o.summary.total - o.summary.executed);
            report_drift += o.report == s.reference_report ? 0 : 1;
            w.units += static_cast<double>(s.points.size());
            w.wall_s += w.latency_ms.back() / 1e3;
            ++reps;
        }
        e.windows.push_back(std::move(w));
    } while (ms_since(start) < config.seconds * 1e3);

    e.attempted = reps * s.points.size();
    e.failed = failed;
    e.max_rate_rps = e.throughput();
    e.area_total = area;
    out.check(failed == 0, std::to_string(failed) +
                               " campaign points failed or were skipped");
    out.check(report_drift == 0,
              std::to_string(report_drift) +
                  " repetitions produced a report that is not "
                  "byte-identical to the first");
    out.note("tune_campaign: " + std::to_string(reps) +
             " timed campaigns; latency is one run_campaign call");
    report_end_to_end(e, "campaign point", out);
    layer_values unused;
    check_points(tune_points(s, config, unused), out);
}

} // namespace stackbench
