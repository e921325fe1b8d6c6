// Time-indexed ILP for combined scheduling, resource binding and
// wordlength selection -- the optimal reference of [5] (Constantinides,
// Cheung, Luk, IEE Electronics Letters 36(17), 2000), reconstructed from
// the DPAlloc paper's description because the letter's text is not
// available.
//
// Decision variables:
//   x[o,r,t] in {0,1}:  operation o starts at control step t on a resource
//                       of wordlength-type r (r compatible with o, t inside
//                       o's feasibility window);
//   n[r]     in Z>=0:   instances of resource type r in the datapath.
// Constraints:
//   assignment  sum_{r,t} x[o,r,t] = 1                      for every o;
//   precedence  sum (t + l(r)) x[o1,r,t] <= sum t x[o2,r,t] for (o1,o2) in S;
//   usage       sum_{o} sum_{t' in (t - l(r), t]} x[o,r,t'] <= n[r]
//                                                for every r and step t.
// Objective: minimise sum_r area(r) * n[r].
//
// The usage constraint is exact: operations assigned to one type conflict
// as intervals, and an interval graph needs exactly max-overlap many
// colours, so n[r] instances always suffice. The variable count grows with
// the latency constraint -- the behaviour the paper's Table 2 probes.

#ifndef MWL_ILP_FORMULATION_HPP
#define MWL_ILP_FORMULATION_HPP

#include "core/datapath.hpp"
#include "dfg/sequencing_graph.hpp"
#include "lp/branch_bound.hpp"
#include "model/hardware_model.hpp"

#include <vector>

namespace mwl {

/// The built model plus the tables needed to decode a solution.
struct ilp_model {
    lp_problem problem;

    struct start_var {
        op_id o;
        std::size_t resource_index; ///< into `resources`
        int t;
        std::size_t var; ///< lp variable index
    };
    std::vector<start_var> x_vars;
    std::vector<std::size_t> count_var; ///< n[r] variable per resource
    std::vector<op_shape> resources;    ///< candidate types (join closure)
};

/// Build the ILP. Throws `infeasible_error` if some operation has an empty
/// start window under `lambda`.
[[nodiscard]] ilp_model build_ilp(const sequencing_graph& graph,
                                  const hardware_model& model, int lambda);

struct ilp_result {
    mip_status status = mip_status::infeasible;
    datapath path;      ///< populated when a solution was found
    std::size_t n_variables = 0;
    std::size_t n_constraints = 0;
    std::size_t nodes = 0;
    std::size_t lp_iterations = 0;
};

/// Build, solve, and decode. The decoded datapath is self-contained and
/// validator-clean; instances are derived from the per-type counts by
/// first-fit interval colouring.
[[nodiscard]] ilp_result solve_ilp(const sequencing_graph& graph,
                                   const hardware_model& model, int lambda,
                                   const mip_options& options = {});

} // namespace mwl

#endif // MWL_ILP_FORMULATION_HPP
