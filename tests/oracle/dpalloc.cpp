#include "oracle.hpp"

#include "core/critical.hpp"
#include "dfg/analysis.hpp"
#include "sched/scheduling_set.hpp"
#include "support/error.hpp"
#include "wcg/wcg.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>

namespace mwl::oracle {
namespace {

datapath make_datapath(const sequencing_graph& graph,
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
        std::sort(inst.ops.begin(), inst.ops.end(),
                  [&](op_id a, op_id b) {
                      return start[a.value()] < start[b.value()];
                  });
        for (const op_id o : inst.ops) {
            path.instance_of_op[o.value()] = ci;
        }
        path.total_area += inst.area;
        path.instances.push_back(std::move(inst));
    }
    for (const op_id o : graph.all_ops()) {
        path.latency = std::max(path.latency,
                                start[o.value()] + path.bound_latency(o));
    }
    return path;
}

/// §2.4 refinement metric: refining o deletes `deleted` of the `pool` H
/// edges incident to o's compatible resources.
struct refine_metric {
    std::int64_t deleted = 0;
    std::int64_t pool = 0;
    bool bound_below_upper = false;
};

refine_metric metric_for(const wordlength_compatibility_graph& wcg, op_id o,
                         int upper_of_o, int bound_latency_of_o)
{
    refine_metric m;
    for (const res_id r : wcg.resources_for(o)) {
        m.pool += static_cast<std::int64_t>(wcg.ops_for(r).size());
        if (wcg.latency(r) == upper_of_o) {
            ++m.deleted;
        }
    }
    m.bound_below_upper = bound_latency_of_o < upper_of_o;
    return m;
}

/// Smaller deleted/pool proportion first (exact, by cross
/// multiplication), then bound latency below the upper bound, then id.
bool better_candidate(op_id a, const refine_metric& ma, op_id b,
                      const refine_metric& mb)
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

} // namespace

dpalloc_result dpalloc(const sequencing_graph& graph,
                       const hardware_model& model, int lambda,
                       const dpalloc_options& options)
{
    require(lambda >= 0, "latency constraint must be non-negative");
    require(options.initial_capacity >= 1, "initial capacity must be >= 1");

    dpalloc_result result;
    result.stats.final_capacity = options.initial_capacity;
    if (graph.empty()) {
        return result;
    }
    require_feasible(lambda >= min_latency(graph, model),
                     "latency constraint below the minimum achievable "
                     "latency of the sequencing graph");

    wordlength_compatibility_graph wcg(graph, model);
    int capacity = options.initial_capacity;
    const bind_options bind_opts{.enable_growth = options.enable_growth,
                                 .reassign_cheapest =
                                     options.reassign_cheapest};

    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
        ++result.stats.iterations;
        // Upper bounds L_o re-derived from the H rows.
        std::vector<int> upper(graph.size(), 0);
        for (const op_id o : graph.all_ops()) {
            for (const res_id r : wcg.resources_for(o)) {
                upper[o.value()] = std::max(upper[o.value()], wcg.latency(r));
            }
        }

        std::vector<int> start;
        if (options.classic_constraint) {
            // Eqn. 2 with N_y = capacity x (cover members of kind y).
            const scheduling_set_result cover = min_scheduling_set(wcg);
            result.stats.cover_always_minimum &= cover.proven_minimum;
            type_limits limits{.add = 0, .mul = 0};
            for (const res_id s : cover.members) {
                (wcg.resource(s).kind() == op_kind::add ? limits.add
                                                        : limits.mul) +=
                    capacity;
            }
            limits.add = std::max(limits.add, 1);
            limits.mul = std::max(limits.mul, 1);
            start = oracle::list_schedule(graph, upper, limits).start;
        } else {
            incomplete_schedule_result sched =
                oracle::schedule_incomplete(wcg, capacity);
            result.stats.cover_always_minimum &= sched.cover_proven_minimum;
            start = std::move(sched.start);
        }

        datapath path = make_datapath(
            graph, wcg, start,
            oracle::bind_select(wcg, start, upper, bind_opts));
        if (path.latency <= lambda) {
            result.path = std::move(path);
            return result;
        }

        // Refinement (§2.4): bound-critical ops that still finish within
        // lambda under their upper bound, else any bound-critical op, else
        // any op -- each restricted to refinable ones.
        std::vector<int> bound_lat(graph.size(), 0);
        for (const op_id o : graph.all_ops()) {
            bound_lat[o.value()] = path.bound_latency(o);
        }
        const bound_critical_path qb = compute_bound_critical_path(
            graph, start, bound_lat, path.instance_of_op, nullptr);

        std::vector<op_id> candidates;
        for (const op_id o : qb.ops) {
            if (wcg.refinable(o) &&
                start[o.value()] + upper[o.value()] <= lambda) {
                candidates.push_back(o);
            }
        }
        if (candidates.empty()) {
            std::copy_if(qb.ops.begin(), qb.ops.end(),
                         std::back_inserter(candidates),
                         [&](op_id o) { return wcg.refinable(o); });
        }
        if (candidates.empty()) {
            for (const op_id o : graph.all_ops()) {
                if (wcg.refinable(o)) {
                    candidates.push_back(o);
                }
            }
        }

        if (candidates.empty()) {
            // Fully refined yet still too slow: escalate capacity.
            ++capacity;
            ++result.stats.escalations;
            result.stats.final_capacity = capacity;
            require_feasible(
                capacity <= static_cast<int>(graph.size()) + 1,
                "internal: capacity escalation failed to converge");
            continue;
        }
        op_id chosen = candidates.front();
        refine_metric best = metric_for(wcg, chosen, upper[chosen.value()],
                                        bound_lat[chosen.value()]);
        for (const op_id o : candidates) {
            const refine_metric m =
                metric_for(wcg, o, upper[o.value()], bound_lat[o.value()]);
            if (better_candidate(o, m, chosen, best)) {
                chosen = o;
                best = m;
            }
        }
        result.stats.edges_deleted +=
            static_cast<std::size_t>(wcg.refine_op(chosen));
        ++result.stats.refinements;
    }
    throw error("dpalloc exceeded max_iterations without converging");
}

} // namespace mwl::oracle
