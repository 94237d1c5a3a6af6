#include <gtest/gtest.h>

#include <cmath>

#include "deploy/evaluate.hpp"
#include "deploy/problem.hpp"
#include "deploy/solution.hpp"
#include "deploy/validate.hpp"
#include "test_util.hpp"

namespace {

using nd::deploy::DeploymentProblem;
using nd::deploy::DeploymentSolution;
using nd::test::tiny_problem;
using nd::test::TinySpec;

// A deliberately simple two-task chain on a 1x2 mesh for hand-computable
// checks: task 0 → task 1, 1e9 cycles each.
std::unique_ptr<DeploymentProblem> chain_problem(double bytes = 1.0e6) {
  nd::task::TaskGraph g;
  g.add_task(1'000'000'000ull, 10.0);
  g.add_task(1'000'000'000ull, 10.0);
  g.add_edge(0, 1, bytes);
  nd::noc::MeshParams mesh;
  mesh.rows = 1;
  mesh.cols = 2;
  mesh.variation = 0.0;
  auto p = std::make_unique<DeploymentProblem>(
      std::move(g), mesh, nd::dvfs::VfTable::typical6(),
      nd::reliability::FaultParams{1e-9, 1.0},  // reliability trivially met
      0.9, /*horizon=*/100.0);
  return p;
}

/// Manual deployment: both tasks on proc 0, level 0, sequential.
DeploymentSolution chain_solution_colocated(const DeploymentProblem& p) {
  DeploymentSolution s = DeploymentSolution::empty(p);
  const double t = p.vf().exec_time(1'000'000'000ull, 0);
  s.level = {0, 0, -1, -1};
  s.proc = {0, 0, -1, -1};
  s.start = {0.0, t, 0.0, 0.0};
  s.end = {t, 2 * t, 0.0, 0.0};
  return s;
}

TEST(Evaluate, ColocatedChainEnergyIsPureComputation) {
  auto p = chain_problem();
  const auto s = chain_solution_colocated(*p);
  const auto rep = nd::deploy::evaluate_energy(*p, s);
  const double e_task = p->vf().energy(1'000'000'000ull, 0);
  EXPECT_NEAR(rep.comp[0], 2 * e_task, 1e-12);
  EXPECT_NEAR(rep.comm[0], 0.0, 1e-18);
  EXPECT_NEAR(rep.comm[1], 0.0, 1e-18);
  EXPECT_NEAR(rep.total(), 2 * e_task, 1e-12);
  EXPECT_NEAR(rep.max_proc(), 2 * e_task, 1e-12);
}

TEST(Evaluate, SplitChainPaysCommunication) {
  const double bytes = 2.0e6;
  auto p = chain_problem(bytes);
  DeploymentSolution s = chain_solution_colocated(*p);
  s.proc[1] = 1;
  const double t = p->vf().exec_time(1'000'000'000ull, 0);
  const double comm_t = bytes * p->mesh().time_per_byte(0, 1, 0);
  s.start[1] = t + comm_t;
  s.end[1] = s.start[1] + t;
  const auto rep = nd::deploy::evaluate_energy(*p, s);
  const double total_comm = bytes * p->mesh().total_energy_per_byte(0, 1, 0);
  EXPECT_NEAR(rep.comm[0] + rep.comm[1], total_comm, 1e-12);
  EXPECT_GT(rep.comm[0], 0.0);
  EXPECT_GT(rep.comm[1], 0.0);
  EXPECT_NEAR(nd::deploy::comm_time_into(*p, s, 1), comm_t, 1e-15);
  // φ is finite and ≥ 1 with both processors active.
  EXPECT_GE(rep.phi(), 1.0);
}

TEST(Evaluate, PathChoiceChangesCost) {
  auto spec = TinySpec{};
  spec.mesh_rows = 2;
  spec.mesh_cols = 2;
  auto p = tiny_problem(spec);
  // Two tasks on opposite corners of a 2x2 mesh: paths 0 and 1 differ.
  DeploymentSolution s = DeploymentSolution::empty(*p);
  for (int i = 0; i < p->num_tasks(); ++i) {
    s.level[static_cast<std::size_t>(i)] = p->num_levels() - 1;
    s.proc[static_cast<std::size_t>(i)] = (i % 2 == 0) ? 0 : 3;
  }
  // Remove duplicates for this energy-only comparison.
  const double comm0 = nd::deploy::comm_time_into(*p, s, 1);
  for (auto& c : s.path_choice) c = 1;
  const double comm1 = nd::deploy::comm_time_into(*p, s, 1);
  EXPECT_LE(comm1, comm0 + 1e-15) << "time-oriented path cannot be slower";
}

TEST(Evaluate, ReliabilityHelpers) {
  auto p = chain_problem();
  DeploymentSolution s = chain_solution_colocated(*p);
  const double r0 = nd::deploy::task_reliability(*p, s, 0);
  EXPECT_GT(r0, 0.99);
  EXPECT_NEAR(nd::deploy::effective_reliability(*p, s, 0), r0, 1e-15);
  // Add a duplicate of task 0 on proc 1.
  s.exists[2] = 1;
  s.level[2] = 0;
  s.proc[2] = 1;
  s.start[2] = 0.0;
  s.end[2] = p->vf().exec_time(1'000'000'000ull, 0);
  EXPECT_GT(nd::deploy::effective_reliability(*p, s, 0), r0);
}

TEST(Validate, AcceptsHandBuiltChain) {
  auto p = chain_problem();
  const auto s = chain_solution_colocated(*p);
  const auto res = nd::deploy::validate(*p, s);
  EXPECT_TRUE(res.ok()) << res.summary();
}

TEST(Validate, CatchesOverlap) {
  auto p = chain_problem();
  nd::task::TaskGraph g2;  // two INDEPENDENT tasks to allow overlap check
  g2.add_task(1'000'000'000ull, 10.0);
  g2.add_task(1'000'000'000ull, 10.0);
  nd::noc::MeshParams mesh;
  mesh.rows = 1;
  mesh.cols = 2;
  DeploymentProblem p2(std::move(g2), mesh, nd::dvfs::VfTable::typical6(),
                       nd::reliability::FaultParams{1e-9, 1.0}, 0.9, 100.0);
  DeploymentSolution s = DeploymentSolution::empty(p2);
  const double t = p2.vf().exec_time(1'000'000'000ull, 0);
  s.level = {0, 0, -1, -1};
  s.proc = {0, 0, -1, -1};
  s.start = {0.0, 0.5 * t, 0.0, 0.0};  // overlaps on proc 0
  s.end = {t, 1.5 * t, 0.0, 0.0};
  const auto res = nd::deploy::validate(p2, s);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.summary().find("overlap"), std::string::npos);
}

TEST(Validate, CatchesPrecedenceViolation) {
  auto p = chain_problem();
  DeploymentSolution s = chain_solution_colocated(*p);
  s.start[1] = 0.0;  // starts before its predecessor finished
  s.end[1] = p->vf().exec_time(1'000'000'000ull, 0);
  const auto res = nd::deploy::validate(*p, s);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.summary().find("precedence"), std::string::npos);
}

TEST(Validate, CatchesMissingCommTime) {
  const double bytes = 4.0e6;
  auto p = chain_problem(bytes);
  DeploymentSolution s = chain_solution_colocated(*p);
  s.proc[1] = 1;  // now cross-processor, but schedule has no comm gap
  const auto res = nd::deploy::validate(*p, s);
  EXPECT_FALSE(res.ok());
}

TEST(Validate, CatchesHorizonViolation) {
  auto p = chain_problem();
  p->set_horizon(1.0);  // chain takes ≥ 2/3 s per task at top speed... tighten:
  p->set_horizon(0.5);
  const auto s = chain_solution_colocated(*p);  // level 0: 1 s per task
  const auto res = nd::deploy::validate(*p, s);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.summary().find("horizon"), std::string::npos);
}

TEST(Validate, CatchesDeadlineViolation) {
  nd::task::TaskGraph g;
  g.add_task(2'000'000'000ull, 0.9);  // 2e9 cycles, deadline 0.9 s
  nd::noc::MeshParams mesh;
  mesh.rows = 1;
  mesh.cols = 2;
  DeploymentProblem p(std::move(g), mesh, nd::dvfs::VfTable::typical6(),
                      nd::reliability::FaultParams{1e-9, 1.0}, 0.9, 100.0);
  DeploymentSolution s = DeploymentSolution::empty(p);
  s.level = {0, -1};  // level 0 → 2 s > deadline
  s.proc = {0, -1};
  s.start = {0.0, 0.0};
  s.end = {2.0, 0.0};
  const auto res = nd::deploy::validate(p, s);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.summary().find("deadline"), std::string::npos);
}

TEST(Validate, CatchesMissingDuplicate) {
  // Force terrible reliability so duplication is mandatory, then omit it.
  auto spec = TinySpec{};
  spec.lambda0 = 1e-2;
  spec.num_tasks = 2;
  spec.alpha = 10.0;
  auto p = tiny_problem(spec);
  DeploymentSolution s = nd::deploy::DeploymentSolution::empty(*p);
  double t_acc = 0.0;
  for (int i = 0; i < p->num_tasks(); ++i) {
    s.level[static_cast<std::size_t>(i)] = 0;  // worst reliability level
    s.proc[static_cast<std::size_t>(i)] = 0;
    s.start[static_cast<std::size_t>(i)] = t_acc;
    t_acc += nd::deploy::comp_time(*p, s, i);
    s.end[static_cast<std::size_t>(i)] = t_acc;
  }
  const auto res = nd::deploy::validate(*p, s);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.summary().find("no duplicate"), std::string::npos) << res.summary();
}

TEST(Validate, RelaxedModeStillRequiresMandatoryDuplicate) {
  // Eq. (4) is checked task by task: a copy of task 0 does not stand in for
  // the mandatory copy of task 1. (The name dates from a since-removed mode
  // that waived only the "no unnecessary copies" direction of eq. (4).)
  auto spec = TinySpec{};
  spec.lambda0 = 1e-2;
  spec.num_tasks = 2;
  spec.alpha = 10.0;
  auto p = tiny_problem(spec);
  DeploymentSolution s = nd::deploy::DeploymentSolution::empty(*p);
  double t_acc = 0.0;
  for (int i = 0; i < p->num_tasks(); ++i) {
    s.level[static_cast<std::size_t>(i)] = 0;
    s.proc[static_cast<std::size_t>(i)] = 0;
    s.start[static_cast<std::size_t>(i)] = t_acc;
    t_acc += nd::deploy::comp_time(*p, s, i);
    s.end[static_cast<std::size_t>(i)] = t_acc;
  }
  const auto d0 = static_cast<std::size_t>(p->num_tasks());  // copy of task 0
  s.exists[d0] = 1;
  s.level[d0] = 0;
  s.proc[d0] = 1;
  s.start[d0] = 0.0;
  s.end[d0] = nd::deploy::comp_time(*p, s, static_cast<int>(d0));
  const auto res = nd::deploy::validate(*p, s);
  EXPECT_FALSE(res.ok());
  bool task1_flagged = false;
  for (const auto& v : res.violations) {
    if (v.find("no duplicate") == std::string::npos) continue;
    EXPECT_EQ(v.rfind("task 0 ", 0), std::string::npos) << v;
    if (v.rfind("task 1 ", 0) == 0) task1_flagged = true;
  }
  EXPECT_TRUE(task1_flagged) << res.summary();
}

TEST(Validate, CatchesUnnecessaryDuplicate) {
  // Eq. (4) is an equivalence: a copy of a task whose reliability already
  // meets R_th is a violation too.
  auto p = chain_problem();
  DeploymentSolution s = chain_solution_colocated(*p);
  s.exists[2] = 1;
  s.level[2] = 5;
  s.proc[2] = 1;
  s.start[2] = 0.0;
  s.end[2] = p->vf().exec_time(1'000'000'000ull, 5);
  const auto res = nd::deploy::validate(*p, s);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.summary().find("duplicate exists"), std::string::npos) << res.summary();
}

TEST(Validate, BoundaryTimesWithinToleranceAccepted) {
  // Times that graze the limits by less than the tolerance must pass; the
  // same perturbation scaled past the tolerance must fail. This pins the
  // kTimeTol + kTimeRelTol·H semantics of the time comparisons.
  auto p = chain_problem();
  const double t = p->vf().exec_time(1'000'000'000ull, 0);
  p->set_horizon(2 * t);  // the schedule now ends exactly at H
  const double tol = nd::deploy::kTimeTol + nd::deploy::kTimeRelTol * p->horizon();

  DeploymentSolution s = chain_solution_colocated(*p);
  s.end[1] += 0.4 * tol;  // past H, but within tolerance
  EXPECT_TRUE(nd::deploy::validate(*p, s).ok());

  s = chain_solution_colocated(*p);
  s.end[1] += 3.0 * tol;  // past H by more than the tolerance
  const auto res = nd::deploy::validate(*p, s);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.summary().find("horizon"), std::string::npos) << res.summary();

  // A start barely below 0 is tolerated; past the tolerance it is not.
  s = chain_solution_colocated(*p);
  s.start[0] -= 0.4 * tol;
  s.end[0] -= 0.4 * tol;
  s.start[1] -= 0.4 * tol;
  s.end[1] -= 0.4 * tol;
  EXPECT_TRUE(nd::deploy::validate(*p, s).ok());
  s.start[0] -= 3.0 * tol;
  s.end[0] -= 3.0 * tol;
  const auto res2 = nd::deploy::validate(*p, s);
  EXPECT_FALSE(res2.ok());
  EXPECT_NE(res2.summary().find("before 0"), std::string::npos) << res2.summary();
}

TEST(Validate, MutationMatrixNamesEachConstraint) {
  // One mutation per constraint class, each expected to surface its own
  // violation message — proving the validator checks every clause, not just
  // some aggregate.
  struct Case {
    const char* name;
    void (*mutate)(DeploymentSolution&);
    const char* expect;  // substring of the violation message
  };
  const Case cases[] = {
      {"invalid-proc", [](DeploymentSolution& s) { s.proc[0] = 99; }, "invalid processor"},
      {"invalid-level", [](DeploymentSolution& s) { s.level[1] = 99; }, "invalid V/F level"},
      {"invalid-path", [](DeploymentSolution& s) { s.path_choice[1] = 7; },
       "invalid path choice"},
      {"end-not-start-plus-comp", [](DeploymentSolution& s) { s.end[0] += 0.5; },
       "end != start + comp"},
      {"original-task-absent", [](DeploymentSolution& s) { s.exists[0] = 0; },
       "marked absent"},
      {"unnecessary-duplicate",
       [](DeploymentSolution& s) {
         // Reliability is already met, so eq. (4) forbids this copy.
         s.exists[2] = 1;
         s.proc[2] = 1;
         s.level[2] = 5;
         s.end[2] = 0.4;
       },
       "duplicate exists"},
  };
  for (const Case& c : cases) {
    auto p = chain_problem();
    DeploymentSolution s = chain_solution_colocated(*p);
    ASSERT_TRUE(nd::deploy::validate(*p, s).ok()) << "baseline must be valid";
    c.mutate(s);
    const auto res = nd::deploy::validate(*p, s);
    EXPECT_FALSE(res.ok()) << c.name;
    EXPECT_NE(res.summary().find(c.expect), std::string::npos)
        << c.name << " → " << res.summary();
  }
}

TEST(Validate, ShapeMismatchAbortsEarly) {
  auto p = chain_problem();
  DeploymentSolution s = chain_solution_colocated(*p);
  s.start.pop_back();
  const auto res = nd::deploy::validate(*p, s);
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.summary().find("arity mismatch"), std::string::npos) << res.summary();
}

TEST(Evaluate, PhiCountsOnlyActiveProcessors) {
  // Everything on one processor: phi is computed over nonzero processors
  // only (paper's definition), so it degenerates to 1.0.
  auto p = chain_problem();
  const auto s = chain_solution_colocated(*p);
  const auto rep = nd::deploy::evaluate_energy(*p, s);
  EXPECT_DOUBLE_EQ(rep.phi(), 1.0);
}

TEST(Evaluate, CompEnergyInvariantUnderReallocation) {
  // Moving tasks between processors redistributes but never changes the
  // total computation energy.
  auto spec = TinySpec{};
  auto p = tiny_problem(spec);
  auto s = nd::deploy::DeploymentSolution::empty(*p);
  for (int i = 0; i < p->num_tasks(); ++i) {
    s.level[static_cast<std::size_t>(i)] = 0;
    s.proc[static_cast<std::size_t>(i)] = 0;
  }
  const auto rep0 = nd::deploy::evaluate_energy(*p, s);
  double comp0 = 0.0;
  for (const double e : rep0.comp) comp0 += e;
  for (int i = 0; i < p->num_tasks(); ++i) {
    s.proc[static_cast<std::size_t>(i)] = i % p->num_procs();
  }
  const auto rep1 = nd::deploy::evaluate_energy(*p, s);
  double comp1 = 0.0;
  for (const double e : rep1.comp) comp1 += e;
  EXPECT_NEAR(comp0, comp1, 1e-12 * std::max(1.0, comp0));
}

TEST(Evaluate, CommTimeSumsOverPredecessors) {
  // A join task with two cross-mesh predecessors pays both transfers.
  nd::task::TaskGraph g;
  g.add_task(1e9, 10.0);
  g.add_task(1e9, 10.0);
  g.add_task(1e9, 10.0);
  g.add_edge(0, 2, 1.0e6);
  g.add_edge(1, 2, 2.0e6);
  nd::noc::MeshParams mesh;
  mesh.rows = 2;
  mesh.cols = 2;
  nd::deploy::DeploymentProblem p(std::move(g), mesh, nd::dvfs::VfTable::typical6(),
                                  nd::reliability::FaultParams{1e-9, 1.0}, 0.9, 100.0);
  auto s = nd::deploy::DeploymentSolution::empty(p);
  s.level = {0, 0, 0, -1, -1, -1};
  s.proc = {1, 2, 0, -1, -1, -1};
  const double expect = 1.0e6 * p.mesh().time_per_byte(1, 0, 0) +
                        2.0e6 * p.mesh().time_per_byte(2, 0, 0);
  EXPECT_NEAR(nd::deploy::comm_time_into(p, s, 2), expect, 1e-15);
  // Same-processor predecessors are free.
  s.proc = {0, 0, 0, -1, -1, -1};
  EXPECT_DOUBLE_EQ(nd::deploy::comm_time_into(p, s, 2), 0.0);
}

TEST(Problem, HorizonRuleScalesWithAlpha) {
  auto spec = TinySpec{};
  auto p = tiny_problem(spec);
  const double h1 = p->horizon_for_alpha(0.5);
  const double h2 = p->horizon_for_alpha(1.0);
  EXPECT_NEAR(h2, 2.0 * h1, 1e-9 * h2);
  EXPECT_GT(h1, 0.0);
}

TEST(Problem, MuIndexPositive) {
  auto p = tiny_problem(TinySpec{});
  EXPECT_GT(p->mu_index(), 0.0);
}

TEST(Problem, RejectsBadParameters) {
  nd::task::TaskGraph g;
  g.add_task(1e9, 1.0);
  nd::noc::MeshParams mesh;
  mesh.rows = 1;
  mesh.cols = 2;
  auto make = [&](double r_th, double horizon) {
    nd::task::TaskGraph copy = g;
    return std::make_unique<DeploymentProblem>(std::move(copy), mesh,
                                               nd::dvfs::VfTable::typical6(),
                                               nd::reliability::FaultParams{1e-9, 1.0}, r_th,
                                               horizon);
  };
  EXPECT_THROW(make(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(make(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(make(0.9, 0.0), std::invalid_argument);
  EXPECT_NO_THROW(make(0.9, 1.0));
  auto p = make(0.9, 1.0);
  EXPECT_THROW(p->set_horizon(-1.0), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(p->horizon_for_alpha(0.0)), std::invalid_argument);
}

TEST(Solution, CountersWork) {
  auto p = tiny_problem(TinySpec{});
  DeploymentSolution s = DeploymentSolution::empty(*p);
  for (int i = 0; i < p->num_tasks(); ++i) s.proc[static_cast<std::size_t>(i)] = 0;
  EXPECT_EQ(s.num_duplicates(p->num_tasks()), 0);
  EXPECT_EQ(s.max_tasks_per_proc(p->num_procs()), p->num_tasks());
  s.exists[static_cast<std::size_t>(p->num_tasks())] = 1;
  s.proc[static_cast<std::size_t>(p->num_tasks())] = 1;
  EXPECT_EQ(s.num_duplicates(p->num_tasks()), 1);
}

}  // namespace
