// Revised-simplex engine tests: sparse storage round-trips, LU
// factorization/solves against known matrices, product-form eta updates vs
// fresh factorization, refactorization triggers, and seeded corpora checked
// against engine-independent oracles: the exact certificate checker for
// every LP verdict (cold and warm), a cold solve of the bound-fixed copy for
// every warm re-solve, and brute-force enumeration for small binary MILPs
// across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/certify_lp.hpp"
#include "analysis/exact/certify_lp_exact.hpp"
#include "analysis/presolve/instance_presolve.hpp"
#include "common/prng.hpp"
#include "deploy/problem.hpp"
#include "heuristic/phases.hpp"
#include "lp/basis_lu.hpp"
#include "lp/certificate.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "lp/sparse.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/model.hpp"
#include "model/formulation.hpp"
#include "obs/obs.hpp"
#include "task/generator.hpp"

namespace {

using nd::Prng;
using nd::lp::BasisLu;
using nd::lp::kInf;
using nd::lp::Problem;
using nd::lp::Sense;
using nd::lp::Simplex;
using nd::lp::SolveStatus;
using nd::lp::SparseMatrix;
using nd::lp::Triplet;
using nd::milp::MipOptions;
using nd::milp::MipStatus;
using nd::milp::Model;

// ---------------------------------------------------------------------------
// Sparse storage
// ---------------------------------------------------------------------------

TEST(Sparse, TripletRoundTripSumsDuplicatesAndDropsZeros) {
  // Duplicate (1,1) entries sum to 5; the (0,2) pair cancels to exact zero
  // and must be dropped from storage.
  const std::vector<Triplet> ts = {
      {0, 0, 1.0}, {1, 1, 2.0}, {1, 1, 3.0}, {2, 0, -4.0},
      {0, 2, 7.5}, {0, 2, -7.5},
  };
  const SparseMatrix a = SparseMatrix::from_triplets(3, 3, ts);
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 3);
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_EQ(a.col_nnz(0), 2);
  EXPECT_EQ(a.col_nnz(1), 1);
  EXPECT_EQ(a.col_nnz(2), 0);
  const SparseMatrix::ColView c0 = a.col(0);
  ASSERT_EQ(c0.len, 2);
  EXPECT_EQ(c0.idx[0], 0);  // sorted by row index
  EXPECT_EQ(c0.idx[1], 2);
  EXPECT_DOUBLE_EQ(c0.val[0], 1.0);
  EXPECT_DOUBLE_EQ(c0.val[1], -4.0);
  const SparseMatrix::ColView c1 = a.col(1);
  ASSERT_EQ(c1.len, 1);
  EXPECT_DOUBLE_EQ(c1.val[0], 5.0);
}

TEST(Sparse, TransposeIsAnInvolutionAndMatchesDenseProducts) {
  Prng g(11);
  std::vector<Triplet> ts;
  const int m = 7, n = 5;
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < n; ++c) {
      if (g.bernoulli(0.4)) ts.push_back({r, c, g.uniform(-2.0, 2.0)});
    }
  }
  const SparseMatrix a = SparseMatrix::from_triplets(m, n, ts);
  const SparseMatrix at = a.transpose();
  const SparseMatrix att = at.transpose();
  EXPECT_EQ(at.rows(), n);
  EXPECT_EQ(at.cols(), m);
  EXPECT_EQ(att.nnz(), a.nnz());

  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = g.uniform(-1.0, 1.0);
  const std::vector<double> ax = a.multiply(x);
  const std::vector<double> atx = at.multiply_transpose(x);  // (Aᵀ)ᵀ x = A x
  const std::vector<double> attx = att.multiply(x);
  ASSERT_EQ(ax.size(), static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) {
    const auto ru = static_cast<std::size_t>(r);
    EXPECT_NEAR(ax[ru], atx[ru], 1e-12);
    EXPECT_NEAR(ax[ru], attx[ru], 1e-12);
  }
}

TEST(Sparse, ScatterAndDotAgreeWithDenseMultiply) {
  Prng g(12);
  const int m = 6, n = 4;
  std::vector<Triplet> ts;
  for (int r = 0; r < m; ++r)
    for (int c = 0; c < n; ++c)
      if (g.bernoulli(0.5)) ts.push_back({r, c, g.uniform(-3.0, 3.0)});
  const SparseMatrix a = SparseMatrix::from_triplets(m, n, ts);

  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = g.uniform(-1.0, 1.0);
  const std::vector<double> ref = a.multiply(x);

  std::vector<double> acc(static_cast<std::size_t>(m), 0.0);
  for (int j = 0; j < n; ++j) a.scatter_col(j, x[static_cast<std::size_t>(j)], acc);
  std::vector<double> y(static_cast<std::size_t>(m));
  for (auto& v : y) v = g.uniform(-1.0, 1.0);
  for (int r = 0; r < m; ++r) {
    EXPECT_NEAR(acc[static_cast<std::size_t>(r)], ref[static_cast<std::size_t>(r)], 1e-12);
  }
  // col_dot(j, y) = column j against y = (Aᵀ y)_j.
  const std::vector<double> aty = a.multiply_transpose(y);
  for (int j = 0; j < n; ++j) {
    EXPECT_NEAR(a.col_dot(j, y), aty[static_cast<std::size_t>(j)], 1e-12);
  }
}

// ---------------------------------------------------------------------------
// LU factorization
// ---------------------------------------------------------------------------

TEST(BasisLuTest, SolvesKnownSystemBothDirections) {
  // B = [[2,1,0],[1,3,1],[0,1,4]]; solutions checked against hand elimination.
  const std::vector<Triplet> ts = {
      {0, 0, 2.0}, {1, 0, 1.0}, {0, 1, 1.0}, {1, 1, 3.0},
      {2, 1, 1.0}, {1, 2, 1.0}, {2, 2, 4.0},
  };
  const SparseMatrix a = SparseMatrix::from_triplets(3, 3, ts);
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, {0, 1, 2}));
  EXPECT_TRUE(lu.factorized());
  EXPECT_EQ(lu.dim(), 3);

  // ftran: B x = b. Output is basis-position-indexed; with the identity
  // basis order the positions coincide with rows.
  std::vector<double> b = {3.0, 5.0, 5.0};
  lu.ftran(b);
  std::vector<double> x(3);
  for (int k = 0; k < 3; ++k) x[static_cast<std::size_t>(k)] = b[static_cast<std::size_t>(k)];
  // Verify B x = rhs by direct multiplication.
  const std::vector<double> bx = a.multiply(x);
  EXPECT_NEAR(bx[0], 3.0, 1e-12);
  EXPECT_NEAR(bx[1], 5.0, 1e-12);
  EXPECT_NEAR(bx[2], 5.0, 1e-12);

  // btran: Bᵀ y = c.
  std::vector<double> c = {1.0, -2.0, 0.5};
  std::vector<double> cin = c;
  lu.btran(cin);
  const std::vector<double> bty = a.multiply_transpose(cin);
  for (int k = 0; k < 3; ++k) {
    EXPECT_NEAR(bty[static_cast<std::size_t>(k)], c[static_cast<std::size_t>(k)], 1e-12);
  }
}

TEST(BasisLuTest, RefusesSingularBasis) {
  // Column 2 = column 0 + column 1: rank 2.
  const std::vector<Triplet> ts = {
      {0, 0, 1.0}, {1, 0, 2.0}, {0, 1, 3.0}, {2, 1, 1.0},
      {0, 2, 4.0}, {1, 2, 2.0}, {2, 2, 1.0},
  };
  const SparseMatrix a = SparseMatrix::from_triplets(3, 3, ts);
  BasisLu lu;
  EXPECT_FALSE(lu.factorize(a, {0, 1, 2}));
  EXPECT_FALSE(lu.factorized());
}

TEST(BasisLuTest, PivotFloorRejectsMarginalBasisOnlyWhenAsked) {
  // Diagonal basis with one tiny-but-real pivot between the envelope margin
  // and an engine-style decision threshold: accepted at the default floor,
  // refused when the caller's floor is supplied.
  const double tiny = 1e-10;
  const std::vector<Triplet> ts = {{0, 0, 1.0}, {1, 1, tiny}, {2, 2, 1.0}};
  const SparseMatrix a = SparseMatrix::from_triplets(3, 3, ts);
  BasisLu relaxed;
  EXPECT_TRUE(relaxed.factorize(a, {0, 1, 2}));
  BasisLu strict;
  EXPECT_FALSE(strict.factorize(a, {0, 1, 2}, 1e-9));
}

// Random sparse nonsingular-ish matrix over [cols], diagonally dominated so
// factorization always succeeds.
SparseMatrix random_square(int m, int extra_cols, std::uint64_t seed) {
  Prng g(seed);
  std::vector<Triplet> ts;
  for (int j = 0; j < m + extra_cols; ++j) {
    const int diag = j % m;
    ts.push_back({diag, j, g.uniform(2.0, 4.0)});
    for (int r = 0; r < m; ++r) {
      if (r != diag && g.bernoulli(0.3)) ts.push_back({r, j, g.uniform(-1.0, 1.0)});
    }
  }
  return SparseMatrix::from_triplets(m, m + extra_cols, ts);
}

TEST(BasisLuTest, EtaUpdateMatchesFreshFactorizationOfExchangedBasis) {
  const int m = 12;
  const SparseMatrix a = random_square(m, 6, 77);
  std::vector<int> basis(static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) basis[static_cast<std::size_t>(r)] = r;

  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, basis));

  // Exchange: column q = m + 2 enters at position r = 4.
  const int q = m + 2, r = 4;
  std::vector<double> w(static_cast<std::size_t>(m), 0.0);
  a.scatter_col(q, 1.0, w);
  lu.ftran(w);  // w = B⁻¹ a_q, basis-position indexed
  ASSERT_TRUE(lu.update(w, r));
  EXPECT_EQ(lu.eta_count(), 1);
  basis[static_cast<std::size_t>(r)] = q;

  BasisLu fresh;
  ASSERT_TRUE(fresh.factorize(a, basis));

  Prng g(5);
  std::vector<double> rhs(static_cast<std::size_t>(m));
  for (auto& v : rhs) v = g.uniform(-1.0, 1.0);

  std::vector<double> via_eta = rhs;
  lu.ftran(via_eta);
  std::vector<double> via_fresh = rhs;
  fresh.ftran(via_fresh);
  for (int k = 0; k < m; ++k) {
    EXPECT_NEAR(via_eta[static_cast<std::size_t>(k)],
                via_fresh[static_cast<std::size_t>(k)], 1e-9);
  }

  std::vector<double> bt_eta = rhs;
  lu.btran(bt_eta);
  std::vector<double> bt_fresh = rhs;
  fresh.btran(bt_fresh);
  for (int k = 0; k < m; ++k) {
    EXPECT_NEAR(bt_eta[static_cast<std::size_t>(k)],
                bt_fresh[static_cast<std::size_t>(k)], 1e-9);
  }
}

TEST(BasisLuTest, NeedsRefactorTripsOnEtaBudget) {
  const int m = 8;
  const SparseMatrix a = random_square(m, 0, 99);
  std::vector<int> basis(static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) basis[static_cast<std::size_t>(r)] = r;
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, basis));
  EXPECT_FALSE(lu.needs_refactor());

  // Degenerate self-exchanges (column r re-enters at position r) keep the
  // basis valid while growing the eta file one entry per update.
  int updates = 0;
  while (!lu.needs_refactor()) {
    const int r = updates % m;
    std::vector<double> w(static_cast<std::size_t>(m), 0.0);
    a.scatter_col(r, 1.0, w);
    lu.ftran(w);
    ASSERT_TRUE(lu.update(w, r)) << "self-exchange eta refused at update " << updates;
    ++updates;
    ASSERT_LT(updates, 10000) << "eta budget never tripped";
  }
  EXPECT_GT(updates, 0);
  EXPECT_EQ(lu.eta_count(), updates);

  // A fresh factorization clears the eta file and the trigger.
  ASSERT_TRUE(lu.factorize(a, basis));
  EXPECT_EQ(lu.eta_count(), 0);
  EXPECT_FALSE(lu.needs_refactor());
}

// ---------------------------------------------------------------------------
// Oracle corpora
// ---------------------------------------------------------------------------

nd::lp::Problem random_lp(int n, int m, std::uint64_t seed) {
  Prng g(seed);
  Problem p;
  for (int j = 0; j < n; ++j) p.add_var(0.0, 1.0, g.uniform(-1.0, 1.0));
  for (int r = 0; r < m; ++r) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < n; ++j) {
      if (g.bernoulli(0.7)) coef.emplace_back(j, g.uniform(-1.0, 1.0));
    }
    if (coef.empty()) coef.emplace_back(0, 1.0);
    // Mostly-feasible mix: x = 0 satisfies LE rows with nonnegative rhs and
    // GE rows with nonpositive rhs. A positive GE rhs can make an instance
    // infeasible, but rarely does: the corpus below names the seeds that are.
    const Sense s = g.bernoulli(0.3) ? Sense::GE : Sense::LE;
    const double rhs = (s == Sense::LE) ? g.uniform(0.2, static_cast<double>(n) / 4)
                                        : g.uniform(-1.0, 0.5);
    p.add_row(coef, s, rhs);
  }
  return p;
}

/// Both certificate checkers accept `cert` as a proof of its verdict on `p`.
::testing::AssertionResult certified(const Problem& p, const nd::lp::Certificate& cert) {
  const auto rep = nd::analysis::certify_lp(p, cert);
  if (rep.num_errors() != 0) {
    return ::testing::AssertionFailure() << "float certify: " << rep.summary();
  }
  if (!nd::analysis::certify_lp_exact(p, cert).accepted()) {
    return ::testing::AssertionFailure() << "exact certify rejected the certificate";
  }
  return ::testing::AssertionSuccess();
}

TEST(LpOracle, EveryColdVerdictIsExactlyCertified) {
  int optimal_seen = 0;
  int infeasible_seen = 0;
  // Seeds 1-10 are all feasible; 30 and 153 are infeasible (Farkas path).
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 30, 153}) {
    const Problem p = random_lp(14, 10, seed * 101);
    Simplex eng(p);
    const SolveStatus st = eng.solve();
    ASSERT_TRUE(st == SolveStatus::kOptimal || st == SolveStatus::kInfeasible)
        << "seed " << seed << ": " << nd::lp::to_string(st);
    if (st == SolveStatus::kOptimal) {
      ++optimal_seen;
    } else {
      ++infeasible_seen;
    }
    EXPECT_TRUE(certified(p, eng.extract_certificate())) << "seed " << seed;
  }
  EXPECT_EQ(optimal_seen, 10);
  EXPECT_EQ(infeasible_seen, 2);
}

TEST(LpOracle, WarmDualResolveMatchesColdSolveOfTheFixedProblem) {
  int warm_infeasible = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Problem p = random_lp(12, 8, seed * 313);
    Simplex warm(p);
    if (warm.solve() != SolveStatus::kOptimal) continue;
    Prng g(seed);
    for (int step = 0; step < 8; ++step) {
      const int j = static_cast<int>(g.uniform_int(0, 11));
      const double fix = g.bernoulli(0.5) ? 1.0 : 0.0;
      warm.set_bound(j, fix, fix);
      const SolveStatus sw = warm.dual_resolve();

      Problem fixed = p;
      fixed.set_var_bounds(j, fix, fix);
      Simplex cold(fixed);
      const SolveStatus sc = cold.solve();
      ASSERT_EQ(sw, sc) << "seed " << seed << " step " << step;
      if (sw == SolveStatus::kOptimal) {
        EXPECT_NEAR(warm.objective(), cold.objective(),
                    1e-6 * (1.0 + std::abs(cold.objective())))
            << "seed " << seed << " step " << step;
      } else {
        ++warm_infeasible;
      }
      EXPECT_TRUE(certified(fixed, warm.extract_certificate()))
          << "seed " << seed << " step " << step;

      warm.set_bound(j, 0.0, 1.0);
      ASSERT_EQ(warm.dual_resolve(), SolveStatus::kOptimal);
    }
  }
  // 25 of the warm verdicts on this corpus are Farkas rays.
  EXPECT_GE(warm_infeasible, 20) << "corpus lost its warm infeasible verdicts";
}

TEST(EngineDifferential, PricingRulesAgreeOnTheOptimum) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Problem p = random_lp(14, 10, seed * 517);
    Simplex::Options devex;
    devex.pricing = nd::lp::Pricing::kDevex;
    Simplex::Options dantzig;
    dantzig.pricing = nd::lp::Pricing::kDantzig;
    Simplex a(p, devex);
    Simplex b(p, dantzig);
    const SolveStatus sa = a.solve();
    const SolveStatus sb = b.solve();
    ASSERT_EQ(sa, sb);
    if (sa == SolveStatus::kOptimal) {
      EXPECT_NEAR(a.objective(), b.objective(), 1e-6 * (1.0 + std::abs(a.objective())));
    }
  }
}

Model random_binary_mip(int n, int m, std::uint64_t seed) {
  Prng g(seed);
  Model mod;
  for (int j = 0; j < n; ++j) {
    mod.add_bin(g.uniform(-5.0, 5.0), "b" + std::to_string(j));
  }
  for (int r = 0; r < m; ++r) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < n; ++j) {
      if (g.bernoulli(0.6)) coef.emplace_back(j, g.uniform(0.1, 2.0));
    }
    if (coef.empty()) coef.emplace_back(0, 1.0);
    mod.add_row(coef, Sense::LE, g.uniform(1.0, static_cast<double>(n)));
  }
  return mod;
}

/// Minimum objective over all 2^n binary points that satisfy every row.
/// x = 0 is always feasible (LE rows, positive rhs), so the minimum exists.
double brute_force_optimum(const Model& mod) {
  const Problem& p = mod.lp();
  const int n = p.num_vars();
  double best = kInf;
  std::vector<double> x(static_cast<std::size_t>(n));
  for (unsigned mask = 0; mask < (1U << n); ++mask) {
    for (int j = 0; j < n; ++j) x[static_cast<std::size_t>(j)] = (mask >> j) & 1U;
    if (p.is_feasible(x, 1e-9)) best = std::min(best, p.objective_value(x));
  }
  return best;
}

TEST(MilpOracle, OptimumMatchesBruteForceAcrossThreadCounts) {
  // Sixty seeds, not five: most of these trees close at the first incumbent,
  // and only a few seeds have a better point hiding behind a near-cutoff
  // bound — the ones an over-eager prune gets wrong.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const Model mod = random_binary_mip(10, 6, seed * 733);
    const double truth = brute_force_optimum(mod);
    for (const int threads : {1, 2, 4}) {
      MipOptions opt;
      opt.num_threads = threads;
      const auto res = nd::milp::solve(mod, opt);
      ASSERT_EQ(res.status, MipStatus::kOptimal) << "seed " << seed << " threads " << threads;
      EXPECT_NEAR(res.obj, truth, 1e-6 * (1.0 + std::abs(truth)))
          << "seed " << seed << " threads " << threads;
    }
  }
}

// The dual loop's FTRAN/BTRAN disagreement retry once refactorized on every
// hit, fresh factors included, where the refactorization reproduces the same
// (r, q): one LU per loop iteration until Bland pricing or the iteration cap
// broke the cycle. On this 3-task 2x2 instance (`gen --tasks 3 --rows 2
// --cols 2 --alpha 0.8 --seed 1`, solved the way `solve --method optimal`
// does) the first such storm falls inside the first 340 nodes, and it made
// factorizations outnumber pivots almost threefold.
TEST(DualLoop, RefactorizationsDoNotOutnumberPivots) {
  if (!nd::obs::compiled_in()) GTEST_SKIP() << "needs the telemetry counters";
  nd::Prng prng(1);
  nd::task::GenParams gen;
  gen.num_tasks = 3;
  gen.width = 2;
  nd::noc::MeshParams mesh;
  mesh.rows = mesh.cols = 2;
  mesh.seed = 1 + 7777;
  nd::deploy::DeploymentProblem p(nd::task::generate_layered(prng, gen), mesh,
                                  nd::dvfs::VfTable::typical6(),
                                  nd::reliability::FaultParams{2e-5, 3.0}, 0.995, 1.0);
  p.set_horizon(p.horizon_for_alpha(0.8));
  const nd::model::Formulation f(p);
  const auto warm = nd::heuristic::solve_heuristic(p);
  std::vector<double> warm_point;
  MipOptions opt;
  opt.node_limit = 340;
  if (warm.feasible) {
    warm_point = f.encode(warm.solution);
    opt.warm_start = &warm_point;
  }
  opt.completion = [&f](const std::vector<double>& lp_point, std::vector<double>* out) {
    return f.complete(lp_point, out);
  };
  nd::analysis::InstancePresolveOptions iopt;
  if (warm.feasible) iopt.warm = &warm_point;
  const auto ipre = nd::analysis::instance_reductions(f, iopt);
  opt.instance_reductions = &ipre.log;

  ASSERT_TRUE(nd::obs::start());
  const auto res = nd::milp::solve(f.model(), opt);
  const nd::obs::Profile prof = nd::obs::stop();
  const long long pivots = prof.counters.at("lp.pivots");
  const long long refactors = prof.counters.at("lp.refactor.count");
  EXPECT_EQ(res.nodes, 341);  // the budget is spent: the storm sat inside it
  EXPECT_GT(pivots, 0);
  EXPECT_LE(refactors, pivots);
}

}  // namespace
