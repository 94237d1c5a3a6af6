// Solver-independent optimality / infeasibility certificates for LPs.
//
// A Certificate is everything an *external* checker needs to re-verify a
// simplex result against the original problem data without trusting the
// engine's internal state:
//   * kOptimal:    primal point x, row duals y, basis, variable statuses.
//     The checker recomputes reduced costs d = c − Aᵀy from scratch and
//     verifies primal feasibility, dual feasibility, complementary slackness
//     and the strong-duality gap (see analysis/certify_lp.hpp).
//   * kInfeasible: a Farkas ray y over the rows. Writing every row as
//     aᵀx + s = b with the slack bounded by the row sense, any feasible
//     point satisfies Σ_j (yᵀA)_j x_j + Σ_r y_r s_r = yᵀb; the ray proves
//     infeasibility when the box-maximum of the left side is still below
//     yᵀb. Both phase-1 termination and a dual-simplex breakdown row yield
//     such a ray.
//
// The duals are recomputed from the basis and the ORIGINAL problem data at
// extraction time (y = B⁻ᵀ c_B, one BTRAN), not read from the engine's
// incrementally-updated reduced costs, so certificate quality does not decay
// with pivot count.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "lp/simplex.hpp"

namespace nd::lp {

struct Certificate {
  SolveStatus status = SolveStatus::kIterLimit;
  double obj = 0.0;              ///< claimed objective (kOptimal)
  std::vector<double> x;         ///< structural values [n] (kOptimal)
  std::vector<double> y;         ///< row duals [m] (kOptimal)
  std::vector<double> d;         ///< claimed reduced costs [n] (kOptimal)
  std::vector<VarStatus> vstat;  ///< structural statuses [n] (kOptimal)
  std::vector<int> basis;        ///< basic column per row [m]; n+r = slack r,
                                 ///< n+m+r = phase-1 artificial r (degenerate
                                 ///< bases can keep one basic at value zero)
  std::vector<double> farkas;    ///< infeasibility ray over rows [m]

  [[nodiscard]] bool has_optimal_data() const {
    return status == SolveStatus::kOptimal && !x.empty() && !y.empty();
  }
  [[nodiscard]] bool has_farkas_ray() const {
    return status == SolveStatus::kInfeasible && !farkas.empty();
  }

  // --- accessors for exact replay (analysis/exact/certify_lp_exact) ---------

  /// True when the basis describes a valid partition for an n-var/m-row
  /// problem: m entries, each in [0, n+2m) (artificials included), no
  /// duplicates.
  [[nodiscard]] bool basis_shape_ok(std::size_t n, std::size_t m) const;

  /// Row indices whose slack is nonbasic ("tight" rows), in row order.
  /// Together with structural_basics() they name the square basis core the
  /// exact checker re-solves (|tight rows| == |structural basics| whenever
  /// basis_shape_ok holds).
  [[nodiscard]] std::vector<std::size_t> tight_rows(std::size_t n) const;

  /// Structural column indices that are basic, in basis order.
  [[nodiscard]] std::vector<std::size_t> structural_basics(std::size_t n) const;

  /// Row indices whose basic column is a unit column (slack n+r' or
  /// artificial n+m+r'), paired with that column's row r'. On such rows the
  /// dual is structurally zero.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> basic_slack_rows(
      std::size_t n) const;
};

/// JSON round-trip for the CLI (`nocdeploy-cli certify --certificate F`).
json::Value certificate_to_json(const Certificate& cert);
Certificate certificate_from_json(const json::Value& v);

}  // namespace nd::lp
