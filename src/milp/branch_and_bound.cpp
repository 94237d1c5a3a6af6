// Result helpers of the branch-and-bound API. The tree search itself —
// milp::solve for every worker count — lives in parallel_bnb.cpp.
#include "milp/branch_and_bound.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace nd::milp {

const char* to_string(MipStatus s) {
  switch (s) {
    case MipStatus::kOptimal: return "optimal";
    case MipStatus::kFeasible: return "feasible";
    case MipStatus::kInfeasible: return "infeasible";
    case MipStatus::kUnknown: return "unknown";
  }
  return "?";
}

double MipResult::gap() const {
  if (!has_solution()) return std::numeric_limits<double>::infinity();
  const double denom = std::max(1e-12, std::abs(obj));
  return std::max(0.0, obj - best_bound) / denom;
}

}  // namespace nd::milp
