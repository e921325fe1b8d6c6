#include "bind/bind_select.hpp"

#include "support/error.hpp"
#include "wcg/chains.hpp"

#include <algorithm>

namespace mwl {
namespace {

timed_op make_timed(op_id o, std::span<const int> start,
                    std::span<const int> lat)
{
    return timed_op{o, start[o.value()], lat[o.value()]};
}

/// True iff `extra`'s members can be absorbed into `base` while keeping
/// `resource` feasible for everyone (Eqn. 4) and the union a chain.
///
/// Both inputs are sorted by start (chains have strictly ascending starts),
/// so the union is checked by a two-pointer merge walk testing `precedes`
/// between consecutive items -- no merged vector is materialized and no
/// allocation happens per probe.
bool can_absorb(const wordlength_compatibility_graph& wcg, res_id resource,
                const std::vector<timed_op>& base,
                const std::vector<op_id>& extra, std::span<const int> start,
                std::span<const int> lat)
{
    for (const op_id o : extra) {
        if (!wcg.compatible(o, resource)) {
            return false;
        }
    }
    std::size_t i = 0;
    std::size_t j = 0;
    timed_op prev{};
    bool have_prev = false;
    while (i < base.size() || j < extra.size()) {
        timed_op next;
        if (j == extra.size() ||
            (i < base.size() &&
             base[i].start <= start[extra[j].value()])) {
            next = base[i++];
        } else {
            next = make_timed(extra[j++], start, lat);
        }
        if (have_prev && !precedes(prev, next)) {
            return false;
        }
        prev = next;
        have_prev = true;
    }
    return true;
}

// bind_chain_key (bind_select.hpp) orders the lazy Chvátal heap: maximise
// ratio, then chain length, then prefer the smaller res_id -- the
// tie-break order of a plain scan over every resource. res_ids are
// distinct, so keys are totally ordered and the argmax unique.

} // namespace

binding bind_select(const wordlength_compatibility_graph& wcg,
                    std::span<const int> start_times,
                    std::span<const int> latencies,
                    const bind_options& options, bind_scratch* scratch_arg)
{
    const sequencing_graph& graph = wcg.graph();
    const std::size_t n = graph.size();
    require(start_times.size() == n && latencies.size() == n,
            "schedule vectors must cover every operation");
    for (std::size_t i = 0; i < n; ++i) {
        require(start_times[i] >= 0, "operation is unscheduled");
        require(latencies[i] >= 1, "operation latencies must be >= 1");
    }

    binding result;
    std::vector<bool> covered(n, false);
    std::size_t n_covered = 0;

    bind_scratch local;
    bind_scratch& sc = scratch_arg ? *scratch_arg : local;
    const std::size_t n_res = wcg.resource_count();
    std::vector<timed_op>& best_chain = sc.best_chain;

    auto& heap = sc.heap;
    heap.clear();
    const auto heap_push = [&](res_id r, std::size_t length) {
        heap.push_back(bind_chain_key{
            static_cast<double>(length) / wcg.area(r), length, r});
        std::push_heap(heap.begin(), heap.end());
    };
    const auto heap_pop = [&]() {
        const bind_chain_key top = heap.front();
        std::pop_heap(heap.begin(), heap.end());
        heap.pop_back();
        return top;
    };

    // Length memo: memo[r] is the longest-chain length among r's uncovered
    // candidates, or `dirty`. chain_users[o] lists the resources whose
    // memoised *greedy* chain (max_chain_length) contains operation o.
    // Covering o dirties exactly those entries, and the invalidation is
    // exact: covering an operation outside a greedy chain leaves that
    // disjoint chain of the same length intact, and lengths never grow as
    // candidates disappear. Entries may be stale (the resource recomputed
    // since); extra invalidations are harmless.
    constexpr std::uint32_t dirty = ~std::uint32_t{0};
    // rows[r]: r's uncovered candidates in ascending finish order, the
    // order max_chain_length walks. A covered operation never becomes a
    // candidate again within this call, so rows are compacted in place;
    // the row was last compacted to exactly the then-uncovered operations,
    // so something got covered since iff survivors[r] moved -- an O(1)
    // test.
    const auto compact = [&](res_id r) -> std::vector<timed_op>& {
        std::vector<timed_op>& row = sc.rows[r.value()];
        if (sc.survivors[r.value()] != row.size()) {
            std::erase_if(row, [&](const timed_op& item) {
                return covered[item.op.value()];
            });
        }
        return row;
    };
    const auto refresh = [&](res_id r) {
        const std::size_t length =
            max_chain_length(compact(r), [&](const timed_op& item) {
                sc.chain_users[item.op.value()].push_back(r);
            });
        sc.memo[r.value()] = static_cast<std::uint32_t>(length);
        if (length > 0) {
            heap_push(r, length);
        }
    };

    // One stable counting pass (finish times are bounded by the
    // schedule horizon) orders operations by (finish, id); distributing
    // that order over the O(r) rows yields every resource's candidates
    // in finish order in O(|H|), with no per-resource sort.
    int max_finish = 0;
    for (std::size_t i = 0; i < n; ++i) {
        max_finish = std::max(max_finish, start_times[i] + latencies[i]);
    }
    auto& count = sc.count;
    count.assign(static_cast<std::size_t>(max_finish) + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        ++count[static_cast<std::size_t>(start_times[i] + latencies[i])];
    }
    std::uint32_t total = 0;
    for (auto& c : count) {
        const std::uint32_t c0 = c;
        c = total;
        total += c0;
    }
    auto& order = sc.order;
    order.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        order[count[static_cast<std::size_t>(start_times[i] +
                                             latencies[i])]++] =
            static_cast<std::uint32_t>(i);
    }
    sc.rows.resize(std::max(sc.rows.size(), n_res));
    for (std::size_t r = 0; r < n_res; ++r) {
        sc.rows[r].clear();
    }
    for (const std::uint32_t ov : order) {
        const op_id o{ov};
        const timed_op item = make_timed(o, start_times, latencies);
        for (const res_id r : wcg.resources_for(o)) {
            sc.rows[r.value()].push_back(item);
        }
    }

    sc.chain_users.resize(std::max(sc.chain_users.size(), n));
    for (std::size_t o = 0; o < n; ++o) {
        sc.chain_users[o].clear();
    }
    sc.survivors.resize(std::max(sc.survivors.size(), n_res));
    sc.memo.assign(n_res, dirty);
    // Seed the heap with every resource's exact length (O(|H|) in
    // total).
    for (const res_id r : wcg.all_resources()) {
        sc.survivors[r.value()] =
            static_cast<std::uint32_t>(sc.rows[r.value()].size());
        refresh(r);
    }

    while (n_covered < n) {
        // Chvátal ratio selection over the implicit column set: for each
        // resource type the best feasible column is a longest chain of
        // uncovered compatible operations.
        res_id best_r = res_id::invalid();
        // Lazy Chvátal selection (Minoux-style): candidate sets only
        // shrink as operations are covered, so every chain length --
        // and thus every selection key -- is non-increasing over
        // rounds. The heap holds at most one key per resource (each
        // pop pushes at most one back), always an upper bound on its
        // current key, and exact while its memo is clean: a memo is
        // set only together with pushing its key and afterwards can
        // only go dirty. The first clean key popped is therefore the
        // true argmax -- unique, as bind_chain_key is a total order --
        // and only resources surfacing at the top are recomputed.
        std::size_t length = 0;
        for (;;) {
            // Every uncovered operation keeps at least one H edge, so
            // a key for some resource with candidates is always here.
            MWL_ASSERT(!heap.empty());
            const bind_chain_key top = heap_pop();
            if (sc.memo[top.r.value()] != dirty) {
                MWL_ASSERT(sc.memo[top.r.value()] == top.length);
                best_r = top.r;
                length = top.length;
                // The resource stays selectable in later rounds; the
                // re-pushed key stays an upper bound as its ops get
                // covered.
                heap_push(top.r, top.length);
                break;
            }
            // Tighten to the survivor bound first: chain length can
            // never exceed the number of uncovered candidates, and
            // pushing the smaller bound keeps every heap key an upper
            // bound, so the argmax argument is untouched.
            const std::size_t bound = sc.survivors[top.r.value()];
            if (bound < top.length) {
                if (bound > 0) {
                    heap_push(top.r, bound);
                }
                continue;
            }
            refresh(top.r);
        }
        // Only the winner needs its members: the canonical chain
        // (start, finish, id) among its uncovered candidates.
        longest_chain_into(compact(best_r), sc.chains, best_chain);
        MWL_ASSERT(best_chain.size() == length);
        MWL_ASSERT(best_r.is_valid() && !best_chain.empty());

        for (const timed_op& item : best_chain) {
            MWL_ASSERT(!covered[item.op.value()]);
            covered[item.op.value()] = true;
            ++n_covered;
            // Only lengths whose greedy chain contains the newly
            // covered operation can change; every other memo is exact.
            for (const res_id r : sc.chain_users[item.op.value()]) {
                sc.memo[r.value()] = dirty;
            }
            sc.chain_users[item.op.value()].clear();
            for (const res_id r : wcg.resources_for(item.op)) {
                --sc.survivors[r.value()];
            }
        }

        if (options.enable_growth) {
            // Greed compensation: try to grow the new clique (keeping its
            // resource type, so total cost can only drop) to swallow
            // previously selected cliques; absorbed cliques are deleted.
            // `best_chain` stays sorted by start throughout, which
            // can_absorb's merge walk relies on.
            bool absorbed = true;
            while (absorbed) {
                absorbed = false;
                for (std::size_t j = 0; j < result.cliques.size(); ++j) {
                    const binding_clique& prev = result.cliques[j];
                    if (!can_absorb(wcg, best_r, best_chain, prev.ops,
                                    start_times, latencies)) {
                        continue;
                    }
                    // Keep the sorted-by-start invariant can_absorb's
                    // merge walk relies on (a chain has distinct starts);
                    // merge through a reused buffer, no allocation.
                    std::vector<timed_op>& merged = sc.merge_tmp;
                    merged.clear();
                    std::size_t bi = 0;
                    std::size_t ei = 0;
                    while (bi < best_chain.size() || ei < prev.ops.size()) {
                        if (ei == prev.ops.size() ||
                            (bi < best_chain.size() &&
                             best_chain[bi].start <=
                                 start_times[prev.ops[ei].value()])) {
                            merged.push_back(best_chain[bi++]);
                        } else {
                            merged.push_back(make_timed(prev.ops[ei++],
                                                        start_times,
                                                        latencies));
                        }
                    }
                    best_chain.swap(merged);
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
        // Wordlength selection proper: each clique takes the cheapest
        // resource type still satisfying Eqn. 4 (pure improvement).
        for (binding_clique& k : result.cliques) {
            const res_id cheapest =
                cheapest_common_resource(wcg, k.ops, sc.hits);
            MWL_ASSERT(cheapest.is_valid()); // current resource qualifies
            if (wcg.area(cheapest) < wcg.area(k.resource)) {
                k.resource = cheapest;
            }
        }
    }

    finalize_binding(result, n, wcg);
    return result;
}

} // namespace mwl
