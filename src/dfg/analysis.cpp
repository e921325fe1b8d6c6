#include "dfg/analysis.hpp"

#include "support/error.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

namespace mwl {
namespace {

void check_latencies(const sequencing_graph& graph,
                     std::span<const int> latencies)
{
    require(latencies.size() == graph.size(),
            "latency vector size must equal the number of operations");
    for (const int latency : latencies) {
        require(latency >= 1, "operation latencies must be >= 1");
    }
}

} // namespace

std::vector<int> native_latencies(const sequencing_graph& graph,
                                  const hardware_model& model)
{
    std::vector<int> latencies;
    latencies.reserve(graph.size());
    for (const op_id o : graph.all_ops()) {
        latencies.push_back(model.latency(graph.shape(o)));
    }
    return latencies;
}

std::vector<int> asap_start_times(const sequencing_graph& graph,
                                  std::span<const int> latencies)
{
    check_latencies(graph, latencies);
    std::vector<int> start(graph.size(), 0);
    for (const op_id o : graph.topological_order()) {
        std::int64_t earliest = 0;
        for (const op_id p : graph.predecessors(o)) {
            earliest = std::max(earliest, std::int64_t{start[p.value()]} +
                                              latencies[p.value()]);
        }
        // Check the finish, not just the start: schedule_length and the
        // critical-path length add the latency back on in int.
        const std::int64_t finish = earliest + latencies[o.value()];
        if (finish > std::numeric_limits<int>::max()) {
            throw precondition_error(
                "a dependency path of " + std::to_string(finish) +
                " control steps exceeds " +
                std::to_string(std::numeric_limits<int>::max()));
        }
        start[o.value()] = static_cast<int>(earliest);
    }
    return start;
}

std::vector<int> alap_start_times(const sequencing_graph& graph,
                                  std::span<const int> latencies, int horizon)
{
    check_latencies(graph, latencies);
    require_feasible(horizon >= critical_path_length(graph, latencies),
                     "ALAP horizon below the critical-path length");

    std::vector<int> start(graph.size(), 0);
    const std::vector<op_id> order = graph.topological_order();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const op_id o = *it;
        int latest = horizon - latencies[o.value()];
        for (const op_id s : graph.successors(o)) {
            latest = std::min(latest, start[s.value()] - latencies[o.value()]);
        }
        start[o.value()] = latest;
    }
    return start;
}

int schedule_length(const sequencing_graph& graph,
                    std::span<const int> latencies,
                    std::span<const int> start_times)
{
    check_latencies(graph, latencies);
    require(start_times.size() == graph.size(),
            "start-time vector size must equal the number of operations");
    int length = 0;
    for (std::size_t i = 0; i < graph.size(); ++i) {
        length = std::max(length, start_times[i] + latencies[i]);
    }
    return length;
}

int critical_path_length(const sequencing_graph& graph,
                         std::span<const int> latencies)
{
    const std::vector<int> start = asap_start_times(graph, latencies);
    return schedule_length(graph, latencies, start);
}

int min_latency(const sequencing_graph& graph, const hardware_model& model)
{
    const std::vector<int> latencies = native_latencies(graph, model);
    return critical_path_length(graph, latencies);
}

} // namespace mwl
