// The benchmark's four workloads. Each fills `out` with the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run), records
// every output check, and sets the attempted / failed unit counts.

#ifndef STACKBENCH_WORKLOADS_HPP
#define STACKBENCH_WORKLOADS_HPP

#include "common.hpp"

namespace stackbench {

void run_paper_sweep(const run_config& config, report& out);
void run_large_graph(const run_config& config, report& out);
void run_serve_zipf(const run_config& config, report& out);
void run_tune_campaign(const run_config& config, report& out);

} // namespace stackbench

#endif // STACKBENCH_WORKLOADS_HPP
