// Chain (clique) utilities on the schedule-derived orientation C.
//
// Once start times are fixed, "o1 completes before o2 starts" defines an
// interval order on operations; C is its transitive orientation, and the
// subgraph of G'(O, C) induced by any O(r) is a comparability graph whose
// cliques are exactly chains of pairwise non-overlapping, ordered
// operations (Golumbic [11]). Maximum cliques are therefore longest chains
// and are found by an O(k log k) sorted sweep instead of general clique
// search -- the linear-time observation the paper leans on in §2.3. The
// sweep reproduces, item for item, the chain the original O(k^2) DP
// returned (property-tested against the DP oracle in
// tests/chains_property_test.cpp). When only the *length* is needed,
// max_chain_length answers in O(k) from a by-finish order.

#ifndef MWL_WCG_CHAINS_HPP
#define MWL_WCG_CHAINS_HPP

#include "support/ids.hpp"

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace mwl {

/// One operation with its scheduled interval [start, start + latency).
struct timed_op {
    op_id op;
    int start = 0;
    int latency = 1;

    [[nodiscard]] int finish() const { return start + latency; }
};

/// True iff a precedes b in C: a finishes no later than b starts.
[[nodiscard]] inline bool precedes(const timed_op& a, const timed_op& b)
{
    return a.finish() <= b.start;
}

/// Reusable buffers for longest_chain, so a caller invoking it in a loop
/// (bind/bind_select.cpp does, once per Chvátal round) performs no
/// per-call allocations beyond the returned chain.
struct chain_scratch {
    std::vector<timed_op> sorted;
    std::vector<std::size_t> by_finish;
    std::vector<std::size_t> dp;
    std::vector<std::size_t> back;
};

/// Maximum-cardinality chain among `items` under `precedes`. Deterministic:
/// ties are broken towards earlier start, then smaller op id. Returns the
/// chosen items in chain (time) order. O(k log k).
[[nodiscard]] std::vector<timed_op> longest_chain(
    std::span<const timed_op> items);

/// As above, reusing `scratch`'s buffers.
[[nodiscard]] std::vector<timed_op> longest_chain(
    std::span<const timed_op> items, chain_scratch& scratch);

/// As above, writing the chain into `out` (cleared first) so a looping
/// caller reuses its capacity. This is the zero-allocation form.
void longest_chain_into(std::span<const timed_op> items,
                        chain_scratch& scratch, std::vector<timed_op>& out);

/// Length of a longest chain among `by_finish`, which must be sorted by
/// ascending finish (ties in any order). This is the interval-scheduling
/// greedy: a chain is a set of pairwise disjoint intervals, and taking
/// each item whose start is no earlier than the last taken finish yields
/// one of maximum size. O(k), no buffers. `take` is called with every item
/// of that greedy chain, in order; removing any *other* item from the set
/// leaves the length unchanged, because the greedy chain survives and the
/// maximum cannot grow as items disappear. The chain is a longest one but
/// not, in general, the canonical chain longest_chain returns.
template <typename Take>
std::size_t max_chain_length(std::span<const timed_op> by_finish, Take&& take)
{
    std::size_t length = 0;
    int last_finish = std::numeric_limits<int>::min();
    for (const timed_op& item : by_finish) {
        if (item.start >= last_finish) {
            take(item);
            last_finish = item.finish();
            ++length;
        }
    }
    return length;
}

[[nodiscard]] inline std::size_t max_chain_length(
    std::span<const timed_op> by_finish)
{
    return max_chain_length(by_finish, [](const timed_op&) {});
}

/// True iff every pair of `items` is ordered by `precedes` one way or the
/// other, i.e. the set is a clique of G'(O, C). O(k log k):
/// sort by start and check adjacent pairs (precedes is transitive).
[[nodiscard]] bool is_chain(std::span<const timed_op> items);

} // namespace mwl

#endif // MWL_WCG_CHAINS_HPP
