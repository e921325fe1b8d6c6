// Schedule-independent timing analysis on sequencing graphs: ASAP / ALAP
// start times and critical-path length for a given per-operation latency
// assignment, plus the native-latency helpers used to derive the paper's
// minimum latency constraint lambda_min.

#ifndef MWL_DFG_ANALYSIS_HPP
#define MWL_DFG_ANALYSIS_HPP

#include "dfg/sequencing_graph.hpp"
#include "model/hardware_model.hpp"

#include <span>
#include <vector>

namespace mwl {

/// Latency of each operation when executed on the smallest resource able to
/// perform it (its own shape), indexed by op id.
[[nodiscard]] std::vector<int> native_latencies(const sequencing_graph& graph,
                                                const hardware_model& model);

/// Earliest start time of every operation with unlimited resources.
/// `latencies[o]` is the latency assumed for operation o (all >= 1).
/// Throws `precondition_error` if a finish time does not fit an int.
[[nodiscard]] std::vector<int> asap_start_times(
    const sequencing_graph& graph, std::span<const int> latencies);

/// Latest start time of every operation such that everything finishes by
/// `horizon` control steps. Throws `infeasible_error` if `horizon` is below
/// the critical-path length.
[[nodiscard]] std::vector<int> alap_start_times(
    const sequencing_graph& graph, std::span<const int> latencies,
    int horizon);

/// Number of control steps used by a start-time assignment:
/// max over o of start[o] + latencies[o] (0 for the empty graph).
[[nodiscard]] int schedule_length(const sequencing_graph& graph,
                                  std::span<const int> latencies,
                                  std::span<const int> start_times);

/// Critical-path length (= ASAP makespan) under `latencies`.
[[nodiscard]] int critical_path_length(const sequencing_graph& graph,
                                       std::span<const int> latencies);

/// The paper's lambda_min: critical-path length when every operation runs at
/// its native latency. This is the tightest latency constraint for which a
/// datapath can exist.
[[nodiscard]] int min_latency(const sequencing_graph& graph,
                              const hardware_model& model);

} // namespace mwl

#endif // MWL_DFG_ANALYSIS_HPP
