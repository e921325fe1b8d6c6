// Phase-attributed replay of DPAlloc's default loop.
//
// `traced_allocate` re-executes the loop in core/dpalloc.cpp through the
// public entry points of each layer -- the WCG constructor,
// min_scheduling_set (whose memo schedule_incomplete then hits),
// schedule_incomplete, bind_select, compute_bound_critical_path and the
// §2.4 candidate choice ending in refine_op -- with the same argument
// order and scratch reuse, and times every call from outside. No
// instrumentation lives in src/.
//
// Every replay is paired with a direct dpalloc() call on the same input
// and must agree on start times, instance grouping, total area and every
// dpalloc_stats field; a disagreement is counted as a mismatch, which
// invalidates the per-layer numbers of that run (the end-to-end metrics
// come from untraced runs and are unaffected).

#ifndef STACKBENCH_REPLAY_HPP
#define STACKBENCH_REPLAY_HPP

#include "common.hpp"

#include "core/dpalloc.hpp"

#include <cstddef>

namespace stackbench {

/// Self time and call counts per phase, summed over replays.
struct phase_totals {
    double wcg_build_ms = 0.0;
    double cover_ms = 0.0;
    double schedule_ms = 0.0;
    double select_ms = 0.0;
    double critical_ms = 0.0;
    double refine_ms = 0.0; ///< candidate choice + refine_op / escalation

    std::size_t cover_calls = 0;
    std::size_t cover_fresh = 0; ///< edge version moved since the last call
    std::size_t schedule_calls = 0;
    std::size_t select_calls = 0;

    std::size_t iterations = 0;
    std::size_t refinements = 0;
    std::size_t escalations = 0;
    std::size_t edges_deleted = 0;

    std::size_t allocations = 0;
    std::size_t mismatches = 0;
    double replay_ms = 0.0; ///< wall time of the replays
    double direct_ms = 0.0; ///< wall time of the paired dpalloc() calls
    double area_total = 0.0;

    [[nodiscard]] double named_ms() const
    {
        return wcg_build_ms + cover_ms + schedule_ms + select_ms +
               critical_ms + refine_ms;
    }
};

/// Replay one allocation, then run dpalloc() directly on the same input;
/// both are timed and compared, and the totals are accumulated into
/// `totals`. Returns the direct call's result. `lambda` must be feasible.
mwl::dpalloc_result traced_allocate(const mwl::sequencing_graph& graph,
                                    const mwl::hardware_model& model,
                                    int lambda, phase_totals& totals);

/// Per-layer metrics common to every workload: phase times and counts,
/// the replay checks, and the trace overhead with its base.
void report_phases(const phase_totals& totals, double passes, report& out);

} // namespace stackbench

#endif // STACKBENCH_REPLAY_HPP
