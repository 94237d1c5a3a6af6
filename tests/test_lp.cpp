#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "analysis/certify_lp.hpp"
#include "analysis/exact/certify_lp_exact.hpp"
#include "common/prng.hpp"
#include "lp/certificate.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace {

using nd::lp::kInf;
using nd::lp::Problem;
using nd::lp::Sense;
using nd::lp::Simplex;
using nd::lp::solve_lp;
using nd::lp::SolveStatus;

// ---------------------------------------------------------------------------
// Exact reference for tiny LPs: enumerate all vertices (points where n
// linearly independent constraints are tight, drawn from variable bounds and
// rows), keep feasible ones, return the best objective. Exponential, so only
// used with n <= 4 and a handful of rows.
// ---------------------------------------------------------------------------

struct RefConstraint {
  std::vector<double> a;
  double rhs;
};

bool solve_square(std::vector<std::vector<double>> A, std::vector<double> b,
                  std::vector<double>* x) {
  const std::size_t n = b.size();
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    for (std::size_t r = k + 1; r < n; ++r)
      if (std::abs(A[r][k]) > std::abs(A[piv][k])) piv = r;
    if (std::abs(A[piv][k]) < 1e-10) return false;
    std::swap(A[piv], A[k]);
    std::swap(b[piv], b[k]);
    for (std::size_t r = 0; r < n; ++r) {
      if (r == k) continue;
      const double f = A[r][k] / A[k][k];
      for (std::size_t c = k; c < n; ++c) A[r][c] -= f * A[k][c];
      b[r] -= f * b[k];
    }
  }
  x->resize(n);
  for (std::size_t k = 0; k < n; ++k) (*x)[k] = b[k] / A[k][k];
  return true;
}

/// Returns true and the optimal objective if a feasible vertex exists.
bool reference_lp_min(const Problem& p, double* best_obj, double tol = 1e-7) {
  const int n = p.num_vars();
  std::vector<RefConstraint> cons;
  for (int j = 0; j < n; ++j) {
    std::vector<double> e(static_cast<std::size_t>(n), 0.0);
    e[static_cast<std::size_t>(j)] = 1.0;
    if (std::isfinite(p.lo(j))) cons.push_back({e, p.lo(j)});
    if (std::isfinite(p.hi(j))) cons.push_back({e, p.hi(j)});
  }
  for (int r = 0; r < p.num_rows(); ++r) {
    std::vector<double> a(static_cast<std::size_t>(n), 0.0);
    for (const auto& [j, v] : p.row(r).coef) a[static_cast<std::size_t>(j)] += v;
    cons.push_back({a, p.row(r).rhs});
  }
  const std::size_t c = cons.size();
  std::vector<std::size_t> idx(static_cast<std::size_t>(n));
  bool found = false;
  double best = 0.0;
  // Enumerate all n-subsets of constraints.
  std::vector<std::size_t> pick;
  auto recurse = [&](auto&& self, std::size_t start) -> void {
    if (pick.size() == static_cast<std::size_t>(n)) {
      std::vector<std::vector<double>> A;
      std::vector<double> b;
      for (auto k : pick) {
        A.push_back(cons[k].a);
        b.push_back(cons[k].rhs);
      }
      std::vector<double> x;
      if (!solve_square(A, b, &x)) return;
      if (!p.is_feasible(x, tol)) return;
      const double obj = p.objective_value(x);
      if (!found || obj < best) {
        found = true;
        best = obj;
      }
      return;
    }
    for (std::size_t k = start; k < c; ++k) {
      pick.push_back(k);
      self(self, k + 1);
      pick.pop_back();
    }
  };
  recurse(recurse, 0);
  if (found) *best_obj = best;
  return found;
}

// ---------------------------------------------------------------------------
// Hand-checked instances
// ---------------------------------------------------------------------------

TEST(Simplex, TwoVarKnownOptimum) {
  Problem p;
  const int x = p.add_var(0, 1, -1.0, "x");
  const int y = p.add_var(0, 1, -1.0, "y");
  p.add_row({{x, 1.0}, {y, 1.0}}, Sense::LE, 1.0);
  const auto res = solve_lp(p);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.obj, -1.0, 1e-8);
  EXPECT_NEAR(res.x[0] + res.x[1], 1.0, 1e-8);
}

TEST(Simplex, EqualityRow) {
  Problem p;
  const int x = p.add_var(0, 2, 1.0, "x");
  const int y = p.add_var(0, 0.5, 0.0, "y");
  p.add_row({{x, 1.0}, {y, 1.0}}, Sense::EQ, 2.0);
  const auto res = solve_lp(p);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.obj, 1.5, 1e-8);  // y at its cap, x = 1.5
}

TEST(Simplex, GreaterEqualRow) {
  Problem p;
  const int x = p.add_var(0, 10, 2.0, "x");
  const int y = p.add_var(0, 10, 3.0, "y");
  p.add_row({{x, 1.0}, {y, 1.0}}, Sense::GE, 4.0);
  const auto res = solve_lp(p);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.obj, 8.0, 1e-8);  // all on the cheaper x
}

TEST(Simplex, DetectsInfeasible) {
  Problem p;
  const int x = p.add_var(0, 1, 1.0, "x");
  p.add_row({{x, 1.0}}, Sense::GE, 2.0);
  EXPECT_EQ(solve_lp(p).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsInfeasibleEqualitySystem) {
  Problem p;
  const int x = p.add_var(0, 5, 0.0, "x");
  const int y = p.add_var(0, 5, 0.0, "y");
  p.add_row({{x, 1.0}, {y, 1.0}}, Sense::EQ, 3.0);
  p.add_row({{x, 1.0}, {y, 1.0}}, Sense::EQ, 4.0);
  EXPECT_EQ(solve_lp(p).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Problem p;
  const int x = p.add_var(0, kInf, -1.0, "x");
  const int y = p.add_var(0, 1, 0.0, "y");
  p.add_row({{x, -1.0}, {y, 1.0}}, Sense::LE, 1.0);
  EXPECT_EQ(solve_lp(p).status, SolveStatus::kUnbounded);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x+y s.t. x - y >= -2 (i.e. y <= x+2): both variables hit -5.
  Problem p;
  const int x = p.add_var(-5, 5, 1.0, "x");
  const int y = p.add_var(-5, 5, 1.0, "y");
  p.add_row({{x, 1.0}, {y, -1.0}}, Sense::GE, -2.0);
  const auto res = solve_lp(p);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.obj, -10.0, 1e-8);
}

TEST(Simplex, NegativeLowerBoundsAgainstReference) {
  Problem p;
  const int x = p.add_var(-5, 5, 1.0, "x");
  const int y = p.add_var(-5, 5, 1.0, "y");
  p.add_row({{x, 1.0}, {y, -1.0}}, Sense::GE, -2.0);
  const auto res = solve_lp(p);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  double ref = 0.0;
  ASSERT_TRUE(reference_lp_min(p, &ref));
  EXPECT_NEAR(res.obj, ref, 1e-7);
}

TEST(Simplex, FixedVariables) {
  Problem p;
  const int x = p.add_var(2, 2, 1.0, "x");
  const int y = p.add_var(0, 10, 1.0, "y");
  p.add_row({{x, 1.0}, {y, 1.0}}, Sense::GE, 5.0);
  const auto res = solve_lp(p);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.obj, 5.0, 1e-8);
  EXPECT_NEAR(res.x[0], 2.0, 1e-9);
}

// A pinned column, an empty column and a redundant row reach the engine
// as they are (the one-shot solve does no presolve); the optimum and its
// certificate must prove out in float and in exact arithmetic.
TEST(Simplex, PinnedEmptyColumnAndRedundantRowCertify) {
  Problem p;
  const int x = p.add_var(2, 2, 1.0, "x");    // pinned
  const int y = p.add_var(0, 10, 1.0, "y");
  (void)p.add_var(-1, 4, -0.5, "e");          // in no row: ends at its upper bound
  p.add_row({{x, 1.0}, {y, 1.0}}, Sense::GE, 5.0);
  p.add_row({{x, 1.0}, {y, 1.0}}, Sense::LE, 100.0);  // activity never exceeds 12
  Simplex engine(p);
  ASSERT_EQ(engine.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(engine.objective(), 3.0, 1e-9);  // x = 2, y = 3, e = 4
  const nd::lp::Certificate cert = engine.extract_certificate();
  const auto rep = nd::analysis::certify_lp(p, cert);
  EXPECT_EQ(rep.num_errors(), 0) << rep.to_table();
  const auto exact = nd::analysis::certify_lp_exact(p, cert);
  EXPECT_TRUE(exact.accepted()) << exact.report.to_table();
  EXPECT_TRUE(exact.exactly_optimal);
}

TEST(Simplex, DegenerateVertexTerminates) {
  // Many redundant constraints through the same vertex.
  Problem p;
  const int x = p.add_var(0, 10, -1.0, "x");
  const int y = p.add_var(0, 10, -1.0, "y");
  for (int k = 1; k <= 6; ++k) {
    p.add_row({{x, static_cast<double>(k)}, {y, static_cast<double>(k)}}, Sense::LE, 2.0 * k);
  }
  const auto res = solve_lp(p);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.obj, -2.0, 1e-8);
}

TEST(Simplex, SolutionIsPrimalFeasible) {
  Problem p;
  const int a = p.add_var(0, 4, 1.0, "a");
  const int b = p.add_var(0, 4, -2.0, "b");
  const int c = p.add_var(0, 4, 0.5, "c");
  p.add_row({{a, 1.0}, {b, 2.0}, {c, 1.0}}, Sense::LE, 6.0);
  p.add_row({{a, 1.0}, {b, -1.0}}, Sense::GE, -1.0);
  const auto res = solve_lp(p);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  std::string why;
  EXPECT_TRUE(p.is_feasible(res.x, 1e-7, &why)) << why;
}

// ---------------------------------------------------------------------------
// Randomized property tests against the vertex-enumeration reference
// ---------------------------------------------------------------------------

class RandomLpVsReference : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpVsReference, MatchesExactOptimum) {
  nd::Prng g(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  const int n = static_cast<int>(g.uniform_int(2, 4));
  const int m = static_cast<int>(g.uniform_int(1, 4));
  Problem p;
  for (int j = 0; j < n; ++j) {
    const double lo = g.uniform(-3.0, 0.0);
    const double hi = lo + g.uniform(0.5, 4.0);
    p.add_var(lo, hi, g.uniform(-2.0, 2.0));
  }
  // Guarantee feasibility: rows are satisfied at the box midpoint.
  for (int r = 0; r < m; ++r) {
    std::vector<std::pair<int, double>> coef;
    double mid = 0.0;
    for (int j = 0; j < n; ++j) {
      const double a = g.uniform(-2.0, 2.0);
      coef.emplace_back(j, a);
      mid += a * 0.5 * (p.lo(j) + p.hi(j));
    }
    const auto sense = static_cast<Sense>(g.uniform_int(0, 1));  // LE or GE
    const double slackness = g.uniform(0.0, 2.0);
    p.add_row(coef, sense, sense == Sense::LE ? mid + slackness : mid - slackness);
  }
  const auto res = solve_lp(p);
  ASSERT_EQ(res.status, SolveStatus::kOptimal) << "seed " << GetParam();
  std::string why;
  EXPECT_TRUE(p.is_feasible(res.x, 1e-6, &why)) << why;
  double ref = 0.0;
  ASSERT_TRUE(reference_lp_min(p, &ref, 1e-7));
  EXPECT_NEAR(res.obj, ref, 1e-5) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomLpVsReference, ::testing::Range(0, 60));

// Same property with equality rows pinned at the box midpoint (guaranteed
// feasible), exercising the artificial-variable phase-1 path.
class RandomEqLpVsReference : public ::testing::TestWithParam<int> {};

TEST_P(RandomEqLpVsReference, MatchesExactOptimum) {
  nd::Prng g(static_cast<std::uint64_t>(GetParam()) * 6151 + 11);
  const int n = static_cast<int>(g.uniform_int(2, 4));
  Problem p;
  for (int j = 0; j < n; ++j) {
    const double lo = g.uniform(-2.0, 0.0);
    p.add_var(lo, lo + g.uniform(1.0, 3.0), g.uniform(-2.0, 2.0));
  }
  // One equality through the midpoint + one loose inequality.
  {
    std::vector<std::pair<int, double>> coef;
    double mid = 0.0;
    for (int j = 0; j < n; ++j) {
      const double a = g.uniform(-2.0, 2.0);
      coef.emplace_back(j, a);
      mid += a * 0.5 * (p.lo(j) + p.hi(j));
    }
    p.add_row(coef, Sense::EQ, mid);
  }
  {
    std::vector<std::pair<int, double>> coef;
    double mid = 0.0;
    for (int j = 0; j < n; ++j) {
      const double a = g.uniform(-1.0, 1.0);
      coef.emplace_back(j, a);
      mid += a * 0.5 * (p.lo(j) + p.hi(j));
    }
    p.add_row(coef, Sense::LE, mid + g.uniform(0.1, 1.0));
  }
  const auto res = solve_lp(p);
  ASSERT_EQ(res.status, SolveStatus::kOptimal) << "seed " << GetParam();
  double ref = 0.0;
  ASSERT_TRUE(reference_lp_min(p, &ref, 1e-7));
  EXPECT_NEAR(res.obj, ref, 1e-5) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomEqLpVsReference, ::testing::Range(0, 40));

// ---------------------------------------------------------------------------
// Warm restart / dual simplex behaviour (the branch-and-bound workhorse)
// ---------------------------------------------------------------------------

TEST(SimplexDual, BoundTightenMatchesFreshSolve) {
  Problem p;
  const int x = p.add_var(0, 1, -3.0, "x");
  const int y = p.add_var(0, 1, -2.0, "y");
  const int z = p.add_var(0, 1, -1.0, "z");
  p.add_row({{x, 1.0}, {y, 1.0}, {z, 1.0}}, Sense::LE, 2.0);
  Simplex eng(p);
  ASSERT_EQ(eng.solve(), SolveStatus::kOptimal);
  EXPECT_NEAR(eng.objective(), -5.0, 1e-8);

  eng.set_bound(x, 0.0, 0.0);  // branch x = 0
  ASSERT_EQ(eng.dual_resolve(), SolveStatus::kOptimal);
  EXPECT_NEAR(eng.objective(), -3.0, 1e-8);

  eng.set_bound(x, 1.0, 1.0);  // sibling branch x = 1
  ASSERT_EQ(eng.dual_resolve(), SolveStatus::kOptimal);
  EXPECT_NEAR(eng.objective(), -5.0, 1e-8);

  eng.set_bound(x, 0.0, 1.0);  // backtrack
  ASSERT_EQ(eng.dual_resolve(), SolveStatus::kOptimal);
  EXPECT_NEAR(eng.objective(), -5.0, 1e-8);
}

TEST(SimplexDual, DetectsChildInfeasibility) {
  Problem p;
  const int x = p.add_var(0, 1, 1.0, "x");
  const int y = p.add_var(0, 1, 1.0, "y");
  p.add_row({{x, 1.0}, {y, 1.0}}, Sense::GE, 1.5);
  Simplex eng(p);
  ASSERT_EQ(eng.solve(), SolveStatus::kOptimal);
  eng.set_bound(x, 0.0, 0.0);
  eng.set_bound(y, 0.0, 0.0);
  EXPECT_EQ(eng.dual_resolve(), SolveStatus::kInfeasible);
  // Recovery after restoring bounds.
  eng.set_bound(x, 0.0, 1.0);
  eng.set_bound(y, 0.0, 1.0);
  ASSERT_EQ(eng.dual_resolve(), SolveStatus::kOptimal);
  EXPECT_NEAR(eng.objective(), 1.5, 1e-8);
}

TEST(SimplexDual, RandomizedResolveMatchesFresh) {
  for (int trial = 0; trial < 25; ++trial) {
    nd::Prng g(1000 + static_cast<std::uint64_t>(trial));
    const int n = 6;
    Problem p;
    for (int j = 0; j < n; ++j) p.add_var(0.0, 1.0, g.uniform(-2.0, 2.0));
    for (int r = 0; r < 4; ++r) {
      std::vector<std::pair<int, double>> coef;
      for (int j = 0; j < n; ++j) coef.emplace_back(j, g.uniform(-1.0, 1.0));
      p.add_row(coef, Sense::LE, g.uniform(0.5, 2.0));
    }
    Simplex eng(p);
    ASSERT_EQ(eng.solve(), SolveStatus::kOptimal);
    // Apply a random sequence of binary-style fixings and releases.
    std::vector<std::pair<double, double>> bounds(n, {0.0, 1.0});
    for (int step = 0; step < 10; ++step) {
      const int j = static_cast<int>(g.uniform_int(0, n - 1));
      const double fix = g.bernoulli(0.5) ? 1.0 : 0.0;
      const bool release = g.bernoulli(0.3);
      bounds[static_cast<std::size_t>(j)] = release ? std::make_pair(0.0, 1.0)
                                                    : std::make_pair(fix, fix);
      eng.set_bound(j, bounds[static_cast<std::size_t>(j)].first,
                    bounds[static_cast<std::size_t>(j)].second);
      const auto st = eng.dual_resolve();

      // Fresh solve on an identical problem for comparison.
      Problem q;
      for (int v = 0; v < n; ++v)
        q.add_var(bounds[static_cast<std::size_t>(v)].first,
                  bounds[static_cast<std::size_t>(v)].second, p.obj(v));
      for (int r = 0; r < p.num_rows(); ++r) q.add_row(p.row(r));
      const auto fresh = solve_lp(q);
      ASSERT_EQ(st, fresh.status) << "trial " << trial << " step " << step;
      if (st == SolveStatus::kOptimal) {
        EXPECT_NEAR(eng.objective(), fresh.obj, 1e-6)
            << "trial " << trial << " step " << step;
      }
    }
  }
}

TEST(Simplex, DeadlineAbortsLongSolves) {
  // A deadline in the past forces an immediate iteration-limit return.
  nd::Prng g(3);
  Problem p;
  const int n = 40;
  for (int j = 0; j < n; ++j) p.add_var(0.0, 1.0, g.uniform(-1.0, 1.0));
  for (int r = 0; r < 20; ++r) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < n; ++j) coef.emplace_back(j, g.uniform(-1.0, 1.0));
    p.add_row(coef, Sense::LE, g.uniform(0.5, 2.0));
  }
  Simplex eng(p);
  eng.set_deadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  EXPECT_EQ(eng.solve(), SolveStatus::kIterLimit);
  // Clearing the deadline lets it finish.
  eng.set_deadline({});
  EXPECT_EQ(eng.solve(), SolveStatus::kOptimal);
}

TEST(Simplex, IterationLimitReported) {
  nd::Prng g(4);
  Problem p;
  const int n = 30;
  for (int j = 0; j < n; ++j) p.add_var(0.0, 1.0, g.uniform(-1.0, 1.0));
  for (int r = 0; r < 15; ++r) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < n; ++j) coef.emplace_back(j, g.uniform(-1.0, 1.0));
    p.add_row(coef, Sense::LE, g.uniform(0.5, 2.0));
  }
  Simplex::Options opt;
  opt.max_iters = 1;
  Simplex eng(p, opt);
  EXPECT_EQ(eng.solve(), SolveStatus::kIterLimit);
}

TEST(Problem, RejectsBadInput) {
  Problem p;
  EXPECT_THROW(p.add_var(1.0, 0.0, 0.0), std::invalid_argument);      // inverted
  EXPECT_THROW(p.add_var(-kInf, kInf, 0.0), std::invalid_argument);   // fully free
  p.add_var(0, 1, 0.0);
  EXPECT_THROW(p.add_row({{5, 1.0}}, Sense::LE, 0.0), std::invalid_argument);
}

TEST(Problem, MergesDuplicateCoefficients) {
  Problem p;
  const int x = p.add_var(0, 10, 1.0, "x");
  p.add_row({{x, 1.0}, {x, 2.0}}, Sense::GE, 6.0);  // effectively 3x >= 6
  const auto res = solve_lp(p);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.x[0], 2.0, 1e-8);
}

}  // namespace
