#include "replay.hpp"

#include "bind/bind_select.hpp"
#include "core/critical.hpp"
#include "sched/incomplete_scheduler.hpp"
#include "sched/scheduling_set.hpp"
#include "wcg/wcg.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

namespace stackbench {

using namespace mwl;

namespace {

/// Adds the wall time of its scope to `sink`.
class span {
public:
    explicit span(double& sink) : sink_(sink), start_(bench_clock::now()) {}
    ~span() { sink_ += ms_since(start_); }
    span(const span&) = delete;
    span& operator=(const span&) = delete;

private:
    double& sink_;
    bench_clock::time_point start_;
};

/// The same assembly as dpalloc's exit path: instances in clique order,
/// each instance's operations ordered by start time.
datapath assemble(const sequencing_graph& graph,
                  const wordlength_compatibility_graph& wcg,
                  const std::vector<int>& start, const binding& bind)
{
    datapath path;
    path.start = start;
    path.instance_of_op.assign(graph.size(), 0);
    for (std::size_t ci = 0; ci < bind.cliques.size(); ++ci) {
        const binding_clique& k = bind.cliques[ci];
        datapath_instance inst;
        inst.shape = wcg.resource(k.resource);
        inst.latency = wcg.latency(k.resource);
        inst.area = wcg.area(k.resource);
        inst.ops = k.ops;
        std::sort(inst.ops.begin(), inst.ops.end(), [&](op_id a, op_id b) {
            return start[a.value()] < start[b.value()];
        });
        for (const op_id o : inst.ops) {
            path.instance_of_op[o.value()] = ci;
        }
        path.total_area += inst.area;
        path.instances.push_back(std::move(inst));
    }
    for (const op_id o : graph.all_ops()) {
        path.latency =
            std::max(path.latency, start[o.value()] + path.bound_latency(o));
    }
    return path;
}

/// §2.4 candidate order: fewest deleted H edges relative to the pool of
/// H edges incident to o's compatible resources (compared by cross
/// multiplication), then bound latency below the upper bound, then id.
struct candidate_metric {
    std::int64_t deleted = 0;
    std::int64_t pool = 0;
    bool bound_below_upper = false;
};

candidate_metric metric_of(const wordlength_compatibility_graph& wcg,
                           op_id o, int bound_latency)
{
    candidate_metric m;
    const int top = wcg.latency_upper_bound(o);
    for (const res_id r : wcg.resources_for(o)) {
        m.pool += static_cast<std::int64_t>(wcg.ops_for(r).size());
        if (wcg.latency(r) == top) {
            ++m.deleted;
        }
    }
    m.bound_below_upper = bound_latency < top;
    return m;
}

bool precedes(op_id a, const candidate_metric& ma, op_id b,
              const candidate_metric& mb)
{
    const std::int64_t lhs = ma.deleted * mb.pool;
    const std::int64_t rhs = mb.deleted * ma.pool;
    if (lhs != rhs) {
        return lhs < rhs;
    }
    if (ma.bound_below_upper != mb.bound_below_upper) {
        return ma.bound_below_upper;
    }
    return a < b;
}

/// DPAlloc with default options, phase by phase. Returns nullopt if the
/// loop fails to converge within the capacity bound dpalloc enforces.
std::optional<dpalloc_result> replay(const sequencing_graph& graph,
                                     const hardware_model& model,
                                     int lambda, phase_totals& t)
{
    dpalloc_result result;
    std::optional<wordlength_compatibility_graph> wcg_slot;
    {
        const span s(t.wcg_build_ms);
        wcg_slot.emplace(graph, model);
    }
    wordlength_compatibility_graph& wcg = *wcg_slot;

    int capacity = 1;
    const bind_options bind_opts{};
    incomplete_sched_scratch scratch;
    bind_scratch bind_sc;
    critical_path_scratch critical_sc;
    std::vector<int> bound_lat;
    std::vector<std::size_t> instance_of_op;
    std::uint64_t last_version = std::numeric_limits<std::uint64_t>::max();

    for (;;) {
        ++result.stats.iterations;
        const std::vector<int> upper = wcg.latency_upper_bounds();

        {
            const span s(t.cover_ms);
            static_cast<void>(min_scheduling_set(wcg, scratch.cover_cache));
        }
        ++t.cover_calls;
        if (wcg.edge_version() != last_version) {
            ++t.cover_fresh;
            last_version = wcg.edge_version();
        }

        incomplete_schedule_result sched;
        {
            const span s(t.schedule_ms);
            sched = schedule_incomplete(wcg, capacity, &scratch,
                                        sched_engine::event);
        }
        ++t.schedule_calls;
        result.stats.cover_always_minimum &= sched.cover_proven_minimum;
        const std::vector<int> start = std::move(sched.start);

        binding bind;
        {
            const span s(t.select_ms);
            bind = bind_select(wcg, start, upper, bind_opts, &bind_sc);
        }
        ++t.select_calls;

        bound_lat.assign(graph.size(), 0);
        instance_of_op.assign(graph.size(), 0);
        int achieved = 0;
        for (std::size_t ci = 0; ci < bind.cliques.size(); ++ci) {
            const binding_clique& k = bind.cliques[ci];
            const int lat = wcg.latency(k.resource);
            for (const op_id o : k.ops) {
                bound_lat[o.value()] = lat;
                instance_of_op[o.value()] = ci;
                achieved = std::max(achieved, start[o.value()] + lat);
            }
        }
        if (achieved <= lambda) {
            result.path = assemble(graph, wcg, start, bind);
            return result;
        }

        bound_critical_path qb;
        {
            const span s(t.critical_ms);
            qb = compute_bound_critical_path(graph, start, bound_lat,
                                             instance_of_op, &critical_sc);
        }

        const span s(t.refine_ms);
        std::vector<op_id> candidates;
        for (const op_id o : qb.ops) {
            if (wcg.refinable(o) &&
                start[o.value()] + upper[o.value()] <= lambda) {
                candidates.push_back(o);
            }
        }
        if (candidates.empty()) {
            for (const op_id o : qb.ops) {
                if (wcg.refinable(o)) {
                    candidates.push_back(o);
                }
            }
        }
        if (candidates.empty()) {
            for (const op_id o : graph.all_ops()) {
                if (wcg.refinable(o)) {
                    candidates.push_back(o);
                }
            }
        }
        if (candidates.empty()) {
            ++capacity;
            ++result.stats.escalations;
            result.stats.final_capacity = capacity;
            if (capacity > static_cast<int>(graph.size()) + 1) {
                return std::nullopt;
            }
            continue;
        }
        op_id chosen = candidates.front();
        candidate_metric best =
            metric_of(wcg, chosen, bound_lat[chosen.value()]);
        for (std::size_t i = 1; i < candidates.size(); ++i) {
            const op_id o = candidates[i];
            const candidate_metric m = metric_of(wcg, o, bound_lat[o.value()]);
            if (precedes(o, m, chosen, best)) {
                chosen = o;
                best = m;
            }
        }
        result.stats.edges_deleted +=
            static_cast<std::size_t>(wcg.refine_op(chosen));
        ++result.stats.refinements;
    }
}

bool same_allocation(const dpalloc_result& a, const dpalloc_result& b)
{
    const dpalloc_stats& x = a.stats;
    const dpalloc_stats& y = b.stats;
    return a.path.start == b.path.start &&
           a.path.instance_of_op == b.path.instance_of_op &&
           a.path.total_area == b.path.total_area &&
           x.iterations == y.iterations && x.refinements == y.refinements &&
           x.edges_deleted == y.edges_deleted &&
           x.final_capacity == y.final_capacity &&
           x.escalations == y.escalations &&
           x.cover_always_minimum == y.cover_always_minimum;
}

} // namespace

dpalloc_result traced_allocate(const sequencing_graph& graph,
                               const hardware_model& model, int lambda,
                               phase_totals& totals)
{
    // Alternate which side runs first so neither always finds the
    // caches warmed by the other.
    const bool replay_first = totals.allocations % 2 == 0;
    std::optional<dpalloc_result> traced;
    dpalloc_result direct;
    for (int side = 0; side < 2; ++side) {
        if ((side == 0) == replay_first) {
            const span s(totals.replay_ms);
            traced = replay(graph, model, lambda, totals);
        } else {
            const span s(totals.direct_ms);
            direct = dpalloc(graph, model, lambda);
        }
    }
    ++totals.allocations;
    if (!traced || !same_allocation(*traced, direct)) {
        ++totals.mismatches;
        return direct;
    }
    totals.iterations += traced->stats.iterations;
    totals.refinements += traced->stats.refinements;
    totals.escalations += traced->stats.escalations;
    totals.edges_deleted += traced->stats.edges_deleted;
    totals.area_total += traced->path.total_area;
    return direct;
}

void report_phases(const phase_totals& t, double passes, report& out)
{
    const auto per_pass = [passes](double v) { return v / passes; };
    const auto count = [passes](std::size_t v) {
        return static_cast<double>(v) / passes;
    };
    out.metric("wcg.build_ms", per_pass(t.wcg_build_ms), "ms");
    out.metric("sched.cover_ms", per_pass(t.cover_ms), "ms");
    out.metric("sched.cover_calls", count(t.cover_calls), "count");
    out.metric("sched.cover_fresh", count(t.cover_fresh), "count");
    out.metric("sched.schedule_ms", per_pass(t.schedule_ms), "ms");
    out.metric("sched.schedule_calls", count(t.schedule_calls), "count");
    out.metric("bind.select_ms", per_pass(t.select_ms), "ms");
    out.metric("bind.select_calls", count(t.select_calls), "count");
    out.metric("core.critical_ms", per_pass(t.critical_ms), "ms");
    out.metric("core.refine_ms", per_pass(t.refine_ms), "ms");
    out.metric("core.iterations", count(t.iterations), "count");
    out.metric("core.refinements", count(t.refinements), "count");
    out.metric("core.escalations", count(t.escalations), "count");
    out.metric("wcg.edges_deleted", count(t.edges_deleted), "count");

    out.metric("trace.allocations", count(t.allocations), "count");
    out.metric("trace.mismatches", count(t.mismatches), "count");
    out.metric("trace.area_total", per_pass(t.area_total), "area");
    out.metric("trace.replay_ms", per_pass(t.replay_ms), "ms");
    out.metric("trace.direct_ms", per_pass(t.direct_ms), "ms");
    out.metric("trace.overhead_ratio",
               t.direct_ms > 0.0 ? t.replay_ms / t.direct_ms : 0.0, "ratio");
    out.metric("trace.phase_coverage",
               t.replay_ms > 0.0 ? t.named_ms() / t.replay_ms : 0.0,
               "ratio");
    // A divergent replay no longer measures dpalloc's phases: flag the
    // per-layer numbers invalid, but leave the run's outputs (checked
    // separately) and its end-to-end metrics alone.
    out.metric("trace.valid", t.mismatches == 0 ? 1.0 : 0.0, "bool");
    if (t.mismatches != 0) {
        out.note("TRACE INVALID: phase replay diverged from dpalloc() on " +
                 std::to_string(t.mismatches) + " allocations");
    }
    out.note("trace: " + std::to_string(t.allocations) +
             " allocations replayed; overhead ratio " +
             std::to_string(t.replay_ms / t.direct_ms) + " = replay " +
             std::to_string(t.replay_ms) + " ms / direct dpalloc " +
             std::to_string(t.direct_ms) + " ms; named phases cover " +
             std::to_string(t.named_ms() / t.replay_ms) +
             " of replay time");
}

} // namespace stackbench
