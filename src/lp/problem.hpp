// Linear / mixed-integer programming problem description.
//
// The paper solves its ILP formulation with `lp_solve` [15]; that solver is
// not available offline, so src/lp is this repository's self-contained
// replacement: a builder (this header), a bounded-variable primal simplex
// (simplex.hpp) and a branch-and-bound wrapper (branch_bound.hpp).
//
// Scope: minimisation over variables with *finite* bounds -- every model in
// this repository is naturally box-bounded, and finite bounds keep the
// simplex free of unboundedness cases.

#ifndef MWL_LP_PROBLEM_HPP
#define MWL_LP_PROBLEM_HPP

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace mwl {

enum class var_kind {
    continuous,
    integer, ///< integral within its bounds (binary = integer in [0,1])
};

enum class row_sense { le, ge, eq };

/// Sparse constraint row: sum of coeff * var `sense` rhs.
struct lp_row {
    std::vector<std::pair<std::size_t, double>> terms;
    row_sense sense = row_sense::le;
    double rhs = 0.0;
};

/// Minimise c'x subject to rows and variable bounds.
class lp_problem {
public:
    /// Add a variable; returns its index. Requires lo <= hi, both finite.
    std::size_t add_variable(double cost, double lo, double hi,
                             var_kind kind = var_kind::continuous,
                             std::string name = {});

    /// Shorthand for a binary (0/1 integer) variable.
    std::size_t add_binary(double cost, std::string name = {});

    /// Add a constraint; variable indices must be valid. Duplicate indices
    /// within one row are allowed (coefficients accumulate).
    void add_row(lp_row row);

    [[nodiscard]] std::size_t n_vars() const { return cost_.size(); }
    [[nodiscard]] std::size_t n_rows() const { return rows_.size(); }

    [[nodiscard]] double cost(std::size_t v) const { return cost_[v]; }
    [[nodiscard]] double lower(std::size_t v) const { return lo_[v]; }
    [[nodiscard]] double upper(std::size_t v) const { return hi_[v]; }
    [[nodiscard]] var_kind kind(std::size_t v) const { return kind_[v]; }
    [[nodiscard]] const std::string& name(std::size_t v) const
    {
        return names_[v];
    }
    [[nodiscard]] const lp_row& row(std::size_t r) const { return rows_[r]; }

    /// Objective value of an assignment (no feasibility implied).
    [[nodiscard]] double objective_of(const std::vector<double>& x) const;

    /// Check `x` against all rows and bounds within `tol`.
    [[nodiscard]] bool is_feasible(const std::vector<double>& x,
                                   double tol = 1e-6) const;

private:
    std::vector<double> cost_;
    std::vector<double> lo_;
    std::vector<double> hi_;
    std::vector<var_kind> kind_;
    std::vector<std::string> names_;
    std::vector<lp_row> rows_;
};

} // namespace mwl

#endif // MWL_LP_PROBLEM_HPP
