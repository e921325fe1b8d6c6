#include "oracle.hpp"

#include "support/error.hpp"

#include <algorithm>

namespace mwl::oracle {
namespace {

timed_op make_timed(op_id o, std::span<const int> start,
                    std::span<const int> lat)
{
    return timed_op{o, start[o.value()], lat[o.value()]};
}

/// True iff `extra` can join `base` on `resource`: every member stays
/// compatible (Eqn. 4) and the union, checked pair by pair, is a chain.
bool can_absorb_copying(const wordlength_compatibility_graph& wcg,
                        res_id resource, const std::vector<timed_op>& base,
                        const std::vector<op_id>& extra,
                        std::span<const int> start, std::span<const int> lat)
{
    std::vector<timed_op> merged = base;
    for (const op_id o : extra) {
        if (!wcg.compatible(o, resource)) {
            return false;
        }
        merged.push_back(make_timed(o, start, lat));
    }
    for (std::size_t i = 0; i < merged.size(); ++i) {
        for (std::size_t j = i + 1; j < merged.size(); ++j) {
            if (!precedes(merged[i], merged[j]) &&
                !precedes(merged[j], merged[i])) {
                return false;
            }
        }
    }
    return true;
}

/// Cheapest resource compatible with every op in `ops`, ties towards the
/// smaller res_id, by scanning every resource.
res_id cheapest_common_resource_scan(
    const wordlength_compatibility_graph& wcg, std::span<const op_id> ops)
{
    res_id best = res_id::invalid();
    for (const res_id r : wcg.all_resources()) {
        const bool covers_all =
            std::all_of(ops.begin(), ops.end(),
                        [&](op_id o) { return wcg.compatible(o, r); });
        if (covers_all &&
            (!best.is_valid() || wcg.area(r) < wcg.area(best))) {
            best = r;
        }
    }
    return best;
}

} // namespace

std::vector<timed_op> longest_chain_dp(std::span<const timed_op> items)
{
    if (items.empty()) {
        return {};
    }
    std::vector<timed_op> sorted(items.begin(), items.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const timed_op& a, const timed_op& b) {
                  if (a.start != b.start) {
                      return a.start < b.start;
                  }
                  if (a.finish() != b.finish()) {
                      return a.finish() < b.finish();
                  }
                  return a.op < b.op;
              });
    const std::size_t n = sorted.size();
    constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::vector<std::size_t> dp(n, 1);
    std::vector<std::size_t> back(n, npos);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < i; ++j) {
            if (precedes(sorted[j], sorted[i]) && dp[j] + 1 > dp[i]) {
                dp[i] = dp[j] + 1;
                back[i] = j;
            }
        }
    }
    std::size_t best = 0;
    for (std::size_t i = 1; i < n; ++i) {
        if (dp[i] > dp[best]) {
            best = i;
        }
    }
    std::vector<timed_op> chain;
    for (std::size_t at = best; at != npos; at = back[at]) {
        chain.push_back(sorted[at]);
    }
    std::reverse(chain.begin(), chain.end());
    return chain;
}

binding bind_select(const wordlength_compatibility_graph& wcg,
                    std::span<const int> start_times,
                    std::span<const int> latencies,
                    const bind_options& options)
{
    const std::size_t n = wcg.graph().size();
    require(start_times.size() == n && latencies.size() == n,
            "schedule vectors must cover every operation");
    for (std::size_t i = 0; i < n; ++i) {
        require(start_times[i] >= 0, "operation is unscheduled");
        require(latencies[i] >= 1, "operation latencies must be >= 1");
    }

    binding result;
    std::vector<bool> covered(n, false);
    std::size_t n_covered = 0;
    while (n_covered < n) {
        // Chvátal ratio selection: every resource's longest chain of
        // uncovered compatible operations, recomputed from scratch; ties
        // go to the longer chain, then the smaller res_id.
        res_id best_r = res_id::invalid();
        std::vector<timed_op> best_chain;
        double best_ratio = -1.0;
        for (const res_id r : wcg.all_resources()) {
            std::vector<timed_op> candidates;
            for (const op_id o : wcg.ops_for(r)) {
                if (!covered[o.value()]) {
                    candidates.push_back(
                        make_timed(o, start_times, latencies));
                }
            }
            std::vector<timed_op> chain = longest_chain_dp(candidates);
            if (chain.empty()) {
                continue;
            }
            const double ratio =
                static_cast<double>(chain.size()) / wcg.area(r);
            const bool better =
                ratio > best_ratio ||
                (ratio == best_ratio &&
                 (!best_r.is_valid() || chain.size() > best_chain.size() ||
                  (chain.size() == best_chain.size() && r < best_r)));
            if (better) {
                best_ratio = ratio;
                best_r = r;
                best_chain.swap(chain);
            }
        }
        MWL_ASSERT(best_r.is_valid() && !best_chain.empty());

        for (const timed_op& item : best_chain) {
            MWL_ASSERT(!covered[item.op.value()]);
            covered[item.op.value()] = true;
            ++n_covered;
        }

        if (options.enable_growth) {
            // Grow the new clique on its own resource type to swallow
            // previously selected cliques, restarting after each merge.
            bool absorbed = true;
            while (absorbed) {
                absorbed = false;
                for (std::size_t j = 0; j < result.cliques.size(); ++j) {
                    const binding_clique& prev = result.cliques[j];
                    if (!can_absorb_copying(wcg, best_r, best_chain,
                                            prev.ops, start_times,
                                            latencies)) {
                        continue;
                    }
                    best_chain.reserve(best_chain.size() + prev.ops.size());
                    for (const op_id o : prev.ops) {
                        best_chain.push_back(
                            make_timed(o, start_times, latencies));
                    }
                    // A chain has distinct starts, so this order is total.
                    std::sort(best_chain.begin(), best_chain.end(),
                              [](const timed_op& a, const timed_op& b) {
                                  return a.start < b.start;
                              });
                    result.cliques.erase(result.cliques.begin() +
                                         static_cast<std::ptrdiff_t>(j));
                    absorbed = true;
                    break;
                }
            }
        }

        binding_clique clique;
        clique.resource = best_r;
        clique.ops.reserve(best_chain.size());
        for (const timed_op& item : best_chain) {
            clique.ops.push_back(item.op);
        }
        result.cliques.push_back(std::move(clique));
    }

    if (options.reassign_cheapest) {
        // Each clique takes the cheapest resource type still satisfying
        // Eqn. 4.
        for (binding_clique& k : result.cliques) {
            const res_id cheapest = cheapest_common_resource_scan(wcg, k.ops);
            MWL_ASSERT(cheapest.is_valid()); // current resource qualifies
            if (wcg.area(cheapest) < wcg.area(k.resource)) {
                k.resource = cheapest;
            }
        }
    }

    finalize_binding(result, n, wcg);
    return result;
}

} // namespace mwl::oracle
