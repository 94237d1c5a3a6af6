// Pre-solve diagnostics over an LP/MILP container (the output of
// src/model's formulation builder, or any hand-built milp::Model).
//
// The raw entry point (lint_raw_model) exists for the same reason as
// lint_task_edges / lint_vf_levels in lint_problem.hpp: lp::Problem and
// milp::Model validate eagerly (finite coefficients, ordered bounds, known
// indices), so external model descriptions — JSON imports, generators under
// development — must be lintable *before* construction, and tests must be
// able to exercise every defect class without fighting the constructors.
//
// Detected defect classes (codes in diagnostics.hpp):
//   * NaN/inf coefficients, objective entries, rhs or bounds      (error)
//   * rows referencing out-of-range variable indices              (error)
//   * absurd-magnitude coefficients (|a| > huge, 0 < |a| < tiny)  (warning)
//   * contradictory variable bounds lb > ub                       (error)
//   * fully free variables (both bounds infinite — the lp::Problem
//     convention forbids them)                                    (error)
//   * integer variables whose window contains no integer point    (error)
//   * empty constraint rows (no or all-zero coefficients); an empty row
//     whose "0 <sense> rhs" is violated is an error, otherwise a warning
//   * exactly-duplicate rows (after normalizing the sparse form)  (warning)
//   * variables referenced by no row and absent from the objective,
//     excluding presolve-fixed variables (lb == ub)               (warning)
//   * trivially infeasible rows: the row's activity interval, computed
//     from variable bounds, cannot reach its rhs                  (error)
//   * one round of interval (bound) propagation: bounds implied by a
//     single row contradict the variable's own bounds             (error)
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "lp/problem.hpp"
#include "milp/model.hpp"

namespace nd::analysis {

/// Unvalidated model description, lintable before any constructor runs.
struct RawVar {
  double lo = 0.0;
  double hi = 0.0;
  double obj = 0.0;
  bool integer = false;
  std::string name;  ///< optional; "x<j>" is used when empty
};

struct RawRow {
  std::vector<std::pair<int, double>> coef;
  lp::Sense sense = lp::Sense::LE;
  double rhs = 0.0;
};

struct RawModel {
  std::vector<RawVar> vars;
  std::vector<RawRow> rows;
};

/// Lint a raw (possibly malformed) model description.
Report lint_raw_model(const RawModel& m);

/// Lint a bare LP (delegates to lint_raw_model).
Report lint_lp(const lp::Problem& p);

/// Lint a MILP (the LP checks plus integrality-specific ones).
Report lint_model(const milp::Model& m);

}  // namespace nd::analysis
