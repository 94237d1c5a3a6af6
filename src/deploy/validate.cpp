#include "deploy/validate.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "deploy/evaluate.hpp"

namespace nd::deploy {

std::string ValidationResult::summary() const {
  if (violations.empty()) return "valid";
  std::ostringstream os;
  os << violations.size() << " violation(s):";
  for (const auto& v : violations) os << "\n  - " << v;
  return os.str();
}

namespace {

class Checker {
 public:
  Checker(const DeploymentProblem& p, const DeploymentSolution& s) : p_(p), s_(s) {}

  ValidationResult run() {
    check_shapes();
    if (!res_.violations.empty()) return res_;  // wrong arity: abort early
    check_existence_and_assignments();
    // Every later check indexes the V/F table and the mesh by the recorded
    // level/processor, so invalid assignments must also stop here.
    if (!res_.violations.empty()) return res_;
    check_duplication_and_reliability();
    check_schedule_window();
    check_precedence();
    check_non_overlap();
    check_paths();
    return res_;
  }

 private:
  template <typename... Args>
  void fail(Args&&... args) {
    std::ostringstream os;
    (os << ... << args);
    res_.violations.push_back(os.str());
  }

  [[nodiscard]] bool exists(int i) const { return s_.exists[static_cast<std::size_t>(i)] != 0; }
  [[nodiscard]] double tol() const { return kTimeTol + kTimeRelTol * p_.horizon(); }

  void check_shapes() {
    const auto total = static_cast<std::size_t>(p_.num_total_tasks());
    if (s_.exists.size() != total || s_.level.size() != total || s_.proc.size() != total ||
        s_.start.size() != total || s_.end.size() != total) {
      fail("solution arity mismatch: expected ", total, " tasks");
    }
    const auto pairs = static_cast<std::size_t>(p_.num_procs()) * p_.num_procs();
    if (s_.path_choice.size() != pairs) {
      fail("path_choice arity mismatch: expected ", pairs, " entries");
    }
  }

  void check_existence_and_assignments() {
    for (int i = 0; i < p_.num_tasks(); ++i) {
      if (!exists(i)) fail("original task ", i, " marked absent (h_i must be 1)");
    }
    for (int i = 0; i < p_.num_total_tasks(); ++i) {
      if (!exists(i)) continue;
      const int k = s_.proc[static_cast<std::size_t>(i)];
      if (k < 0 || k >= p_.num_procs()) fail("task ", i, " has invalid processor ", k);  // (1)
      const int l = s_.level[static_cast<std::size_t>(i)];
      if (l < 0 || l >= p_.num_levels()) fail("task ", i, " has invalid V/F level ", l);  // (3)
    }
  }

  void check_duplication_and_reliability() {
    constexpr double kRelEps = 1e-12;
    for (int i = 0; i < p_.num_tasks(); ++i) {
      if (s_.level[static_cast<std::size_t>(i)] < 0) continue;  // reported above
      const double r = task_reliability(p_, s_, i);
      const int d = i + p_.num_tasks();
      const bool dup = exists(d);
      if (r < p_.r_th() - kRelEps && !dup) {
        fail("task ", i, " reliability ", r, " < R_th ", p_.r_th(), " but no duplicate");  // (4)
      }
      if (r >= p_.r_th() + kRelEps && dup) {
        fail("task ", i, " reliability ", r, " >= R_th but duplicate exists (eq. (4))");
      }
      if (effective_reliability(p_, s_, i) < p_.r_th() - kRelEps) {
        fail("task ", i, " effective reliability below R_th");  // (5)
      }
    }
    for (int i = p_.num_tasks(); i < p_.num_total_tasks(); ++i) {
      if (exists(i) && s_.level[static_cast<std::size_t>(i)] < 0) {
        fail("duplicate ", i, " exists without a V/F level");
      }
    }
  }

  void check_schedule_window() {
    for (int i = 0; i < p_.num_total_tasks(); ++i) {
      if (!exists(i)) continue;
      const auto iu = static_cast<std::size_t>(i);
      const double tc = comp_time(p_, s_, i);
      if (s_.start[iu] < -tol()) fail("task ", i, " starts before 0");
      if (s_.end[iu] > p_.horizon() + tol()) fail("task ", i, " ends after horizon H");  // (9)
      if (std::abs(s_.end[iu] - s_.start[iu] - tc) > tol()) {
        fail("task ", i, " end != start + comp time");
      }
      if (tc > p_.dup().deadline(i) + tol()) {
        fail("task ", i, " computation time ", tc, " exceeds deadline ",
             p_.dup().deadline(i));  // (8)
      }
    }
  }

  void check_precedence() {
    for (int j = 0; j < p_.num_total_tasks(); ++j) {
      if (!exists(j)) continue;
      const double t_comm = comm_time_into(p_, s_, j);
      for (const int ei : p_.dup().in_edges(j)) {
        const auto& e = p_.dup().edges()[static_cast<std::size_t>(ei)];
        if (!exists(e.from)) continue;
        if (std::any_of(e.gates.begin(), e.gates.end(),
                        [&](int g) { return !exists(g); }))
          continue;
        const double earliest = s_.end[static_cast<std::size_t>(e.from)] + t_comm;
        if (s_.start[static_cast<std::size_t>(j)] < earliest - tol()) {
          fail("precedence violated on edge ", e.from, "→", j, ": start ",
               s_.start[static_cast<std::size_t>(j)], " < pred end + comm ", earliest);  // (6)
        }
      }
    }
  }

  void check_non_overlap() {
    for (int i = 0; i < p_.num_total_tasks(); ++i) {
      if (!exists(i)) continue;
      for (int j = i + 1; j < p_.num_total_tasks(); ++j) {
        if (!exists(j)) continue;
        if (s_.proc[static_cast<std::size_t>(i)] != s_.proc[static_cast<std::size_t>(j)])
          continue;
        const double si = s_.start[static_cast<std::size_t>(i)];
        const double ei = s_.end[static_cast<std::size_t>(i)];
        const double sj = s_.start[static_cast<std::size_t>(j)];
        const double ej = s_.end[static_cast<std::size_t>(j)];
        if (si < ej - tol() && sj < ei - tol()) {
          fail("tasks ", i, " and ", j, " overlap on processor ",
               s_.proc[static_cast<std::size_t>(i)]);  // (7)
        }
      }
    }
  }

  void check_paths() {
    for (int b = 0; b < p_.num_procs(); ++b) {
      for (int g = 0; g < p_.num_procs(); ++g) {
        if (b == g) continue;
        const int rho = s_.rho(b, g, p_.num_procs());
        if (rho < 0 || rho >= noc::Mesh::kNumPaths) {
          fail("pair (", b, ",", g, ") has invalid path choice ", rho);  // (2)
        }
      }
    }
  }

  const DeploymentProblem& p_;
  const DeploymentSolution& s_;
  ValidationResult res_;
};

}  // namespace

ValidationResult validate(const DeploymentProblem& p, const DeploymentSolution& s) {
  return Checker(p, s).run();
}

}  // namespace nd::deploy
