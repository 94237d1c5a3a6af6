// LP certificate checker: re-verifies a simplex result against the ORIGINAL
// problem data, sharing no state with the engine that produced it.
//
// For a kOptimal certificate (point x, row duals y) the checker recomputes
// everything with compensated (Neumaier) summation and verifies
//   * primal feasibility:  every row and every variable bound within tol,
//   * dual feasibility:    d = c − Aᵀy has the sign its bound structure
//                          demands (rows: y ≤ 0 on LE, y ≥ 0 on GE;
//                          variables: d ≥ 0 when only lo is finite, d ≤ 0
//                          when only hi is finite),
//   * complementary slackness: a nonzero dual rides an active row; a nonzero
//                          reduced cost pins its variable to the matching
//                          bound,
//   * strong duality:      cᵀx equals the dual bound
//                          yᵀb + Σ_j (d_j > 0 ? d_j·lo_j : d_j·hi_j),
//   * objective:           the claimed objective matches cᵀx.
//
// For a kInfeasible certificate the Farkas ray y is checked directly:
// writing rows as aᵀx + s = b (slack bounded by sense), every feasible point
// satisfies Σ_j w_j x_j + Σ_r y_r s_r = yᵀb with w = Aᵀy; the ray proves
// infeasibility iff the box-maximum of the left side falls short of yᵀb.
#pragma once

#include "analysis/diagnostics.hpp"
#include "lp/certificate.hpp"
#include "lp/problem.hpp"

namespace nd::analysis {

/// Verify `cert` against `p`. Clean report = the certificate proves what it
/// claims; every defect is an error diagnostic naming the offending row /
/// variable / quantity.
Report certify_lp(const lp::Problem& p, const lp::Certificate& cert);

}  // namespace nd::analysis
