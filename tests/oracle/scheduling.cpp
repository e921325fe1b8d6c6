#include "oracle.hpp"

#include "dfg/analysis.hpp"
#include "sched/priorities.hpp"
#include "support/error.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

namespace mwl::oracle {
namespace {

/// Unscheduled operations whose predecessors have all finished by step t,
/// in list-scheduling order (priority desc, op id asc).
std::vector<op_id> ready_at(const sequencing_graph& graph,
                            std::span<const int> latencies,
                            std::span<const int> priority,
                            const std::vector<int>& start, int t)
{
    std::vector<op_id> ready;
    for (const op_id o : graph.all_ops()) {
        if (start[o.value()] >= 0) {
            continue;
        }
        bool ok = true;
        for (const op_id p : graph.predecessors(o)) {
            const int ps = start[p.value()];
            if (ps < 0 || ps + latencies[p.value()] > t) {
                ok = false;
                break;
            }
        }
        if (ok) {
            ready.push_back(o);
        }
    }
    std::sort(ready.begin(), ready.end(), [&](op_id a, op_id b) {
        if (priority[a.value()] != priority[b.value()]) {
            return priority[a.value()] > priority[b.value()];
        }
        return a < b;
    });
    return ready;
}

} // namespace

incomplete_schedule_result schedule_incomplete(
    const wordlength_compatibility_graph& wcg, int capacity)
{
    require(capacity >= 1, "scheduling-set member capacity must be >= 1");

    const sequencing_graph& graph = wcg.graph();
    incomplete_schedule_result result;
    result.start.assign(graph.size(), -1);
    if (graph.empty()) {
        return result;
    }

    const scheduling_set_result cover = min_scheduling_set(wcg);
    result.scheduling_set = cover.members;
    result.cover_proven_minimum = cover.proven_minimum;
    const std::size_t n_members = cover.members.size();

    // S(o) by probing every (operation, member) pair -- O(N * M).
    std::vector<std::vector<std::size_t>> members_of_op(graph.size());
    for (const op_id o : graph.all_ops()) {
        for (std::size_t mi = 0; mi < n_members; ++mi) {
            if (wcg.compatible(o, cover.members[mi])) {
                members_of_op[o.value()].push_back(mi);
            }
        }
        MWL_ASSERT(!members_of_op[o.value()].empty()); // S is a cover
    }

    // Exact fractional accounting: each op contributes scale/|S(o)| units
    // to each of its members, against a budget of capacity*scale.
    std::int64_t scale = 1;
    for (const auto& members : members_of_op) {
        scale = std::lcm(scale, static_cast<std::int64_t>(members.size()));
    }
    const std::int64_t budget = static_cast<std::int64_t>(capacity) * scale;

    const std::vector<int> upper = wcg.latency_upper_bounds();
    const std::vector<int> priority = critical_path_priorities(graph, upper);
    const int horizon = serial_horizon(upper);
    std::vector<std::vector<std::int64_t>> usage(
        n_members,
        std::vector<std::int64_t>(static_cast<std::size_t>(horizon), 0));

    std::size_t scheduled = 0;
    for (int t = 0; scheduled < graph.size(); ++t) {
        MWL_ASSERT(t < horizon);
        for (const op_id o : ready_at(graph, upper, priority, result.start,
                                      t)) {
            const auto& members = members_of_op[o.value()];
            const std::int64_t share =
                scale / static_cast<std::int64_t>(members.size());
            const auto window = [&](std::size_t mi) {
                return std::span(usage[mi]).subspan(
                    static_cast<std::size_t>(t),
                    static_cast<std::size_t>(upper[o.value()]));
            };
            const bool fits =
                std::all_of(members.begin(), members.end(),
                            [&](std::size_t mi) {
                                const auto w = window(mi);
                                return std::all_of(
                                    w.begin(), w.end(),
                                    [&](std::int64_t used) {
                                        return used + share <= budget;
                                    });
                            });
            if (!fits) {
                continue;
            }
            result.start[o.value()] = t;
            ++scheduled;
            for (const std::size_t mi : members) {
                for (std::int64_t& used : window(mi)) {
                    used += share;
                }
            }
        }
    }

    result.length = schedule_length(graph, upper, result.start);
    return result;
}

list_schedule_result list_schedule(const sequencing_graph& graph,
                                   std::span<const int> latencies,
                                   const type_limits& limits)
{
    require(latencies.size() == graph.size(),
            "latency vector size must equal the number of operations");
    require(limits.add >= 1 && limits.mul >= 1,
            "resource limits must be at least 1");
    for (const int latency : latencies) {
        require(latency >= 1, "operation latencies must be >= 1");
    }

    list_schedule_result result;
    result.start.assign(graph.size(), -1);
    if (graph.empty()) {
        return result;
    }

    const std::vector<int> priority =
        critical_path_priorities(graph, latencies);
    const int horizon = serial_horizon(latencies);
    // running[kind][t]: operations of that kind executing during step t.
    std::vector<int> running_add(static_cast<std::size_t>(horizon), 0);
    std::vector<int> running_mul(static_cast<std::size_t>(horizon), 0);

    std::size_t scheduled = 0;
    for (int t = 0; scheduled < graph.size(); ++t) {
        MWL_ASSERT(t < horizon);
        for (const op_id o : ready_at(graph, latencies, priority,
                                      result.start, t)) {
            const op_kind kind = graph.shape(o).kind();
            const auto window =
                std::span(kind == op_kind::add ? running_add : running_mul)
                    .subspan(static_cast<std::size_t>(t),
                             static_cast<std::size_t>(latencies[o.value()]));
            const int limit = limits.of(kind);
            if (std::any_of(window.begin(), window.end(),
                            [&](int used) { return used + 1 > limit; })) {
                continue;
            }
            result.start[o.value()] = t;
            ++scheduled;
            for (int& used : window) {
                ++used;
            }
        }
    }

    result.length = schedule_length(graph, latencies, result.start);
    return result;
}

} // namespace mwl::oracle
