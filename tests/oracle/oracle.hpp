// Test-only reference pipeline: the from-scratch DPAlloc that the
// production allocator's caches and fast paths must reproduce exactly.
//
// Every arm re-derives its answer with the plainest available algorithm
// and no state carried between calls:
//  * schedule_incomplete / list_schedule rescan the whole graph for ready
//    operations at every control step, and the incomplete scheduler probes
//    every (operation, cover member) pair to build S(o);
//  * bind_select recomputes every resource's chain with the quadratic DP
//    in every Chvátal round, probes absorption by copying, and finds the
//    cheapest common resource by scanning every resource;
//  * dpalloc re-derives the latency upper bounds from the H rows, solves a
//    cold scheduling-set cover, and materialises the datapath every
//    iteration.
//
// The oracle shares only stateless production helpers (the cold
// min_scheduling_set, critical_path_priorities, serial_horizon,
// schedule_length, finalize_binding, the scratch-less bound critical
// path, precedes). It never touches a production scratch or cache type,
// the event engine or the greedy chain-length kernels, so a parity test
// against it checks those against separate code. The parity suites are
// tests/incremental_regression_test.cpp, tests/large_graph_identity_test.cpp
// and tests/bind_test.cpp.

#ifndef MWL_TESTS_ORACLE_ORACLE_HPP
#define MWL_TESTS_ORACLE_ORACLE_HPP

#include "bind/bind_select.hpp"
#include "core/dpalloc.hpp"
#include "sched/incomplete_scheduler.hpp"
#include "sched/list_scheduler.hpp"
#include "wcg/chains.hpp"

#include <span>
#include <vector>

namespace mwl::oracle {

/// Incomplete-wordlength scheduling (paper §2.2, Eqn. 3') by per-step
/// full-graph rescans. Same contract as mwl::schedule_incomplete.
[[nodiscard]] incomplete_schedule_result schedule_incomplete(
    const wordlength_compatibility_graph& wcg, int capacity = 1);

/// Classic per-type list scheduling (Eqn. 2) by per-step full-graph
/// rescans. Same contract as mwl::list_schedule.
[[nodiscard]] list_schedule_result list_schedule(
    const sequencing_graph& graph, std::span<const int> latencies,
    const type_limits& limits);

/// The original O(k^2) longest-chain DP: canonical (start, finish, op)
/// sort, strict-improvement predecessor scan, first-index argmax.
[[nodiscard]] std::vector<timed_op> longest_chain_dp(
    std::span<const timed_op> items);

/// BindSelect (paper §2.3) recomputing every chain every round. Same
/// contract as mwl::bind_select.
[[nodiscard]] binding bind_select(const wordlength_compatibility_graph& wcg,
                                  std::span<const int> start_times,
                                  std::span<const int> latencies,
                                  const bind_options& options = {});

/// DPAlloc (paper §2) as a plain loop over the oracle arms. Same contract
/// as mwl::dpalloc.
[[nodiscard]] dpalloc_result dpalloc(const sequencing_graph& graph,
                                     const hardware_model& model, int lambda,
                                     const dpalloc_options& options = {});

} // namespace mwl::oracle

#endif // MWL_TESTS_ORACLE_ORACLE_HPP
