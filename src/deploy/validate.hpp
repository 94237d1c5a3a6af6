// Independent constraint checker for deployments.
//
// Re-derives every constraint of the paper's formulation from raw problem
// data — deliberately sharing no code with the MILP builder or the heuristic
// so that a bug in either cannot hide. Checks:
//   (1) allocation: every existing task on exactly one valid processor
//   (3) frequency: every existing task has exactly one valid V/F level
//   (4) duplication trigger: copy exists iff single-copy reliability < R_th
//   (5) reliability: effective reliability ≥ R_th for every original task
//   (6) precedence: t_j^s ≥ t_i^e + t_j^comm over active edges
//   (7) non-overlap: co-located tasks never execute simultaneously
//   (8) deadline: computation time ≤ D_i
//   (9) horizon: 0 ≤ t^s ≤ t^e ≤ H, t^e = t^s + t^comp
//   (2) path choice: ρ ∈ {0, 1} for every used processor pair
#pragma once

#include <string>
#include <vector>

#include "deploy/problem.hpp"
#include "deploy/solution.hpp"

namespace nd::deploy {

/// Slack on time comparisons: kTimeTol + kTimeRelTol·H seconds.
inline constexpr double kTimeTol = 1e-7;
inline constexpr double kTimeRelTol = 1e-9;

struct ValidationResult {
  std::vector<std::string> violations;
  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] std::string summary() const;
};

ValidationResult validate(const DeploymentProblem& p, const DeploymentSolution& s);

}  // namespace nd::deploy
