// Tests for the exact-arithmetic proof layer (analysis/exact): the rational
// type, the fraction-free linear solver, the exact LP certificate checker,
// the exact B&B audit replay and the static deployment verifier.
//
// The mutation tests deliberately tamper at the 1e-9..1e-12 scale — well
// inside the 1e-6 tolerances the float checkers accept — so they pass only
// if the exact path really compares with zero tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "analysis/certify_bnb.hpp"
#include "analysis/certify_lp.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/exact/certify_bnb_exact.hpp"
#include "analysis/exact/certify_lp_exact.hpp"
#include "analysis/exact/rat.hpp"
#include "analysis/exact/verify_deployment.hpp"
#include "deploy/evaluate.hpp"
#include "heuristic/phases.hpp"
#include "lp/certificate.hpp"
#include "lp/simplex.hpp"
#include "milp/audit.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/model.hpp"
#include "obs/obs.hpp"
#include "test_util.hpp"

namespace {

namespace codes = nd::analysis::codes;
using nd::analysis::BigInt;
using nd::analysis::Rat;
using nd::lp::Sense;

// ---------------------------------------------------------------------------
// BigInt / Rat arithmetic

TEST(ExactRat, NormalizesOnConstruction) {
  EXPECT_EQ(Rat(6, 4), Rat(3, 2));
  EXPECT_EQ(Rat(1, -2), Rat(-1, 2));     // denominator sign moves to numerator
  EXPECT_EQ(Rat(0, 7), Rat());
  EXPECT_EQ(Rat(6, 4).to_string(), "3/2");
  EXPECT_EQ(Rat(-4, 2).to_string(), "-2");
  EXPECT_THROW(Rat(1, 0), std::domain_error);
}

TEST(ExactRat, DyadicDoubleConversionIsLossless) {
  EXPECT_EQ(Rat(0.5), Rat(1, 2));
  EXPECT_EQ(Rat(-0.75), Rat(-3, 4));
  EXPECT_EQ(Rat(3.0), Rat(3));
  // 0.1 is NOT 1/10 in binary; an exact importer must preserve the
  // difference a float comparison cannot see.
  EXPECT_NE(Rat(0.1), Rat(1, 10));
  EXPECT_EQ(Rat(0.1), Rat(BigInt(std::int64_t{3602879701896397}),
                          BigInt(std::int64_t{1} << 55)));
}

TEST(ExactRat, OrdersAcrossDenominators) {
  EXPECT_LT(Rat(1, 3), Rat(2, 5));
  EXPECT_LT(Rat(-2, 3), Rat(-1, 2));
  EXPECT_GE(Rat(7, 7), Rat(1));
  EXPECT_EQ(Rat::min(Rat(1, 3), Rat(2, 5)), Rat(1, 3));
  EXPECT_EQ(Rat::max(Rat(-1), Rat(-2)), Rat(-1));
  // A gap far below double resolution still orders correctly.
  const Rat tiny = Rat(1, 1000000007) * Rat(1, 1000000007) * Rat(1, 1000000007);
  EXPECT_GT(Rat(1, 3) + tiny, Rat(1, 3));
  EXPECT_EQ((Rat(1, 3) + tiny).to_double(), Rat(1, 3).to_double());  // fp-invisible
}

TEST(ExactRat, PromotesPastSixtyFourBits) {
  // 2^200 by repeated doubling, checked against the known decimal expansion.
  BigInt b(1);
  for (int i = 0; i < 200; ++i) b = b + b;
  EXPECT_EQ(b.to_string(), "1606938044258990275541962092341162602522202993782792835301376");
  EXPECT_GT(b.num_limbs(), std::size_t{3});
  // (2^200 − 1) + 1 == 2^200 exercises the carry chain across all limbs.
  EXPECT_EQ((b - BigInt(1)) + BigInt(1), b);
  // INT64_MIN round-trips without UB.
  const BigInt m(std::numeric_limits<std::int64_t>::min());
  EXPECT_TRUE(m.fits_i64());
  EXPECT_EQ(m.to_i64(), std::numeric_limits<std::int64_t>::min());
}

TEST(ExactRat, MultiLimbMultiplyDivideRoundTrip) {
  BigInt a(987654321);
  for (int i = 0; i < 4; ++i) a = a * a;  // 987654321^16: ~144 decimal digits
  const BigInt prod = a * BigInt(1000003);
  EXPECT_EQ(BigInt::div_exact(prod, BigInt(1000003)), a);
  EXPECT_THROW(BigInt::div_exact(BigInt(7), BigInt(2)), std::logic_error);
}

TEST(ExactRat, FieldIdentitiesHoldExactly) {
  const std::int64_t nums[] = {3, -7, 123456789, -987654321098765LL, 1};
  const std::int64_t dens[] = {2, 9, 1024, 999999937, 6700417};
  for (const std::int64_t an : nums) {
    for (const std::int64_t ad : dens) {
      const Rat a(an, ad), b(ad, an < 0 ? -an : an);
      EXPECT_EQ(a + b - b, a);
      EXPECT_EQ(a * b / b, a);
      EXPECT_EQ(a - a, Rat());
      EXPECT_EQ((a + a) / a, Rat(2));
    }
  }
}

// ---------------------------------------------------------------------------
// Fraction-free linear solver

TEST(ExactLinearSystem, SolvesSmallSystemExactly) {
  std::vector<std::vector<Rat>> M = {{Rat(2), Rat(1)}, {Rat(1), Rat(3)}};
  std::vector<Rat> rhs = {Rat(5), Rat(10)};
  std::vector<Rat> x;
  ASSERT_TRUE(nd::analysis::solve_exact_linear_system(M, rhs, &x));
  EXPECT_EQ(x[0], Rat(1));
  EXPECT_EQ(x[1], Rat(3));
}

TEST(ExactLinearSystem, SolvesIllConditionedHilbertExactly) {
  // The 6x6 Hilbert system is float-hostile (cond ~ 1e7); exactly it is just
  // another matrix. rhs = H·1 must recover exactly ones.
  const int n = 6;
  std::vector<std::vector<Rat>> M(n, std::vector<Rat>(n));
  std::vector<Rat> rhs(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      M[i][j] = Rat(1, i + j + 1);
      rhs[i] += M[i][j];
    }
  }
  std::vector<Rat> x;
  ASSERT_TRUE(nd::analysis::solve_exact_linear_system(M, rhs, &x));
  for (int i = 0; i < n; ++i) EXPECT_EQ(x[i], Rat(1)) << "component " << i;
}

TEST(ExactLinearSystem, ReportsSingularMatrix) {
  std::vector<std::vector<Rat>> M = {{Rat(1), Rat(2)}, {Rat(2), Rat(4)}};
  std::vector<Rat> rhs = {Rat(1), Rat(2)};
  std::vector<Rat> x;
  EXPECT_FALSE(nd::analysis::solve_exact_linear_system(M, rhs, &x));
}

// ---------------------------------------------------------------------------
// Exact LP certificate checking

// minimize x0 + 2 x1  s.t.  x0 + x1 >= 1,  x0 + x1 <= 3,  x in [0,1]^2.
nd::lp::Problem simple_lp() {
  nd::lp::Problem p;
  p.add_var(0.0, 1.0, 1.0, "x0");
  p.add_var(0.0, 1.0, 2.0, "x1");
  p.add_row({{0, 1.0}, {1, 1.0}}, Sense::GE, 1.0);
  p.add_row({{0, 1.0}, {1, 1.0}}, Sense::LE, 3.0);
  return p;
}

/// Cold solve on a fresh engine and the certificate of its verdict.
nd::lp::Certificate certificate_of(const nd::lp::Problem& p) {
  nd::lp::Simplex engine(p);
  (void)engine.solve();
  return engine.extract_certificate();
}

nd::lp::Certificate solved_cert(const nd::lp::Problem& p) {
  const nd::lp::Certificate cert = certificate_of(p);
  EXPECT_EQ(cert.status, nd::lp::SolveStatus::kOptimal);
  return cert;
}

TEST(ExactLp, AcceptsGenuineCertificateExactly) {
  const auto p = simple_lp();
  const auto out = nd::analysis::certify_lp_exact(p, solved_cert(p));
  EXPECT_TRUE(out.accepted()) << out.report.to_table();
  EXPECT_TRUE(out.exactly_optimal);
  EXPECT_EQ(out.exact_objective, Rat(1));       // optimum (1, 0) exactly
  ASSERT_TRUE(out.has_safe_bound);
  EXPECT_LE(out.safe_lower_bound, Rat(1));
  EXPECT_EQ(out.safe_lower_bound, Rat(1));      // exact duals: bound is tight
}

TEST(ExactLp, RejectsObjectiveForgeryBelowFloatTolerance) {
  const auto p = simple_lp();
  auto cert = solved_cert(p);
  cert.obj -= 1e-9;  // invisible to the 1e-6 float checker
  EXPECT_EQ(nd::analysis::certify_lp(p, cert).num_errors(), 0);
  const auto out = nd::analysis::certify_lp_exact(p, cert);
  EXPECT_GE(out.report.count_code(codes::kLpExactObjective), 1) << out.report.to_table();
}

TEST(ExactLp, RejectsDualDriftBelowFloatTolerance) {
  const auto p = simple_lp();
  auto cert = solved_cert(p);
  cert.y[0] += 1e-9;
  EXPECT_EQ(nd::analysis::certify_lp(p, cert).num_errors(), 0);
  const auto out = nd::analysis::certify_lp_exact(p, cert);
  EXPECT_GE(out.report.count_code(codes::kLpExactDualDrift), 1) << out.report.to_table();
}

TEST(ExactLp, RejectsFlippedVariableStatus) {
  const auto p = simple_lp();
  auto cert = solved_cert(p);
  // Claim a nonbasic variable rests at the OPPOSITE bound: the exact basic
  // point it induces sits a whole unit away from the certified vertex, so the
  // recomputed objective cannot match the claim.
  std::size_t flipped = cert.vstat.size();
  for (std::size_t j = 0; j < cert.vstat.size(); ++j) {
    if (cert.vstat[j] == nd::lp::VarStatus::kAtLower) {
      cert.vstat[j] = nd::lp::VarStatus::kAtUpper;
      flipped = j;
      break;
    }
    if (cert.vstat[j] == nd::lp::VarStatus::kAtUpper) {
      cert.vstat[j] = nd::lp::VarStatus::kAtLower;
      flipped = j;
      break;
    }
  }
  ASSERT_LT(flipped, cert.vstat.size()) << "fixture needs a nonbasic structural";
  const auto out = nd::analysis::certify_lp_exact(p, cert);
  EXPECT_GE(out.report.count_code(codes::kLpExactObjective), 1) << out.report.to_table();
}

TEST(ExactLp, RejectsDuplicateBasisEntry) {
  const auto p = simple_lp();
  auto cert = solved_cert(p);
  ASSERT_GE(cert.basis.size(), std::size_t{2});
  cert.basis[1] = cert.basis[0];
  const auto out = nd::analysis::certify_lp_exact(p, cert);
  EXPECT_GE(out.report.count_code(codes::kLpExactShape), 1) << out.report.to_table();
}

TEST(ExactLp, RejectsZeroedFarkasRay) {
  nd::lp::Problem p;
  p.add_var(0.0, 1.0, 1.0, "x0");
  p.add_row({{0, 1.0}}, Sense::GE, 2.0);  // unreachable: x0 <= 1
  auto cert = certificate_of(p);
  ASSERT_EQ(cert.status, nd::lp::SolveStatus::kInfeasible);
  EXPECT_TRUE(nd::analysis::certify_lp_exact(p, cert).farkas_proved);
  std::fill(cert.farkas.begin(), cert.farkas.end(), 0.0);
  const auto out = nd::analysis::certify_lp_exact(p, cert);
  EXPECT_FALSE(out.farkas_proved);
  EXPECT_GE(out.report.count_code(codes::kLpExactFarkas), 1) << out.report.to_table();
}

TEST(ExactLp, RejectsInfeasibilityClaimOnFeasibleProblem) {
  const auto p = simple_lp();
  nd::lp::Certificate cert;
  cert.status = nd::lp::SolveStatus::kInfeasible;
  cert.farkas = {1.0, 0.0};  // "x0 + x1 >= 1 is unreachable" — it is not
  const auto out = nd::analysis::certify_lp_exact(p, cert);
  EXPECT_FALSE(out.farkas_proved);
  EXPECT_GE(out.report.count_code(codes::kLpExactFarkas), 1) << out.report.to_table();
}

TEST(ExactLp, SafeDualBoundSurvivesWrongSignedDuals) {
  const auto p = simple_lp();
  auto cert = solved_cert(p);
  // A grossly wrong-signed dual must be projected away, not poison the
  // bound: the result is weaker, never invalid.
  std::vector<double> y = cert.y;
  y[1] = 5.0;  // LE row wants y <= 0
  Rat bound;
  ASSERT_TRUE(nd::analysis::exact_safe_dual_bound(p, y, &bound));
  EXPECT_LE(bound, Rat(1));
}

// ---------------------------------------------------------------------------
// Exact B&B audit replay

// minimize -x0 - 0.9 x1  s.t.  x0 + x1 <= 7.5,  x0, x1 in [0,10] integer.
nd::milp::Model staircase_model() {
  nd::milp::Model m;
  const int x0 = m.add_int(0.0, 10.0, -1.0, "x0");
  const int x1 = m.add_int(0.0, 10.0, -0.9, "x1");
  m.add_row({{x0, 1.0}, {x1, 1.0}}, Sense::LE, 7.5);
  return m;
}

nd::milp::AuditLog solved_audit(const nd::milp::Model& m) {
  nd::milp::AuditLog audit;
  nd::milp::MipOptions opt;
  opt.audit = &audit;
  const auto res = nd::milp::solve(m, opt);
  EXPECT_EQ(res.status, nd::milp::MipStatus::kOptimal);
  return audit;
}

TEST(ExactBnb, AcceptsGenuineAudit) {
  const auto m = staircase_model();
  const auto audit = solved_audit(m);
  const auto out = nd::analysis::certify_bnb_exact(m, audit);
  EXPECT_TRUE(out.accepted()) << out.report.to_table();
  EXPECT_EQ(out.resolves_failed, 0);
}

TEST(ExactBnb, RejectsForgedPrune) {
  const auto m = staircase_model();
  auto audit = solved_audit(m);
  // Claim a node that actually BRANCHED was bound-pruned: its true LP bound
  // sits below the cutoff (that is why it branched), so the exact re-proof
  // must fail. The float replay trusts the recorded disposition and bound.
  std::size_t forged = audit.nodes.size();
  for (std::size_t i = 0; i < audit.nodes.size(); ++i) {
    if (audit.nodes[i].parent >= 0 && audit.nodes[i].disp == nd::milp::NodeDisp::kBranched) {
      forged = i;
      break;
    }
  }
  ASSERT_LT(forged, audit.nodes.size()) << "fixture needs an interior branched node";
  audit.nodes[forged].disp = nd::milp::NodeDisp::kPrunedBound;
  const auto out = nd::analysis::certify_bnb_exact(m, audit);
  EXPECT_GE(out.report.count_code(codes::kBnbExactPrune), 1) << out.report.to_table();
}

TEST(ExactBnb, RejectsObjectiveTamperBelowFloatTolerance) {
  const auto m = staircase_model();
  auto audit = solved_audit(m);
  audit.obj -= 1e-9;  // "found" a marginally better incumbent than the tree did
  const auto out = nd::analysis::certify_bnb_exact(m, audit);
  EXPECT_GE(out.report.count_code(codes::kBnbExactObjective), 1) << out.report.to_table();
}

TEST(ExactBnb, RejectsBestBoundAboveIncumbent) {
  const auto m = staircase_model();
  auto audit = solved_audit(m);
  audit.best_bound = audit.obj + 1e-9;
  const auto out = nd::analysis::certify_bnb_exact(m, audit);
  EXPECT_GE(out.report.count_code(codes::kBnbExactObjective), 1) << out.report.to_table();
}

// ---------------------------------------------------------------------------
// Static deployment verifier

struct VerifiedFixture {
  std::unique_ptr<nd::deploy::DeploymentProblem> problem;
  nd::deploy::DeploymentSolution solution;
  double be = 0.0;
};

VerifiedFixture heuristic_fixture() {
  VerifiedFixture fx;
  fx.problem = nd::test::tiny_problem({});
  const auto h = nd::heuristic::solve_heuristic(*fx.problem);
  EXPECT_TRUE(h.feasible) << h.why;
  fx.solution = h.solution;
  fx.be = nd::deploy::evaluate_energy(*fx.problem, h.solution).max_proc();
  return fx;
}

TEST(VerifyDeployment, ProvesHeuristicDeployment) {
  const auto fx = heuristic_fixture();
  nd::analysis::VerifyDeploymentOptions opt;
  opt.claimed_be = fx.be;
  const auto out = nd::analysis::verify_deployment(*fx.problem, fx.solution, opt);
  EXPECT_TRUE(out.accepted()) << out.report.to_table();
  EXPECT_TRUE(out.schedule_proved);
  EXPECT_TRUE(out.reliability_proved);
  EXPECT_TRUE(out.energy_exact);
  EXPECT_GT(out.exact_be, Rat());
  EXPECT_LE(out.exact_be, out.exact_me);  // bottleneck <= total, exactly
}

TEST(VerifyDeployment, RejectsEnergyForgeryBelowFloatTolerance) {
  const auto fx = heuristic_fixture();
  nd::analysis::VerifyDeploymentOptions opt;
  opt.claimed_be = fx.be * (1.0 + 1e-9);
  const auto out = nd::analysis::verify_deployment(*fx.problem, fx.solution, opt);
  EXPECT_GE(out.report.count_code(codes::kVerifyEnergy), 1) << out.report.to_table();
}

TEST(VerifyDeployment, RejectsHorizonShrunkBelowExactMakespan) {
  auto fx = heuristic_fixture();
  nd::analysis::VerifyDeploymentOptions opt;
  const auto honest = nd::analysis::verify_deployment(*fx.problem, fx.solution, opt);
  ASSERT_TRUE(honest.schedule_proved);
  // One part in 1e8 below the exact makespan: far outside the derived
  // envelope (~1e-10 at this scale) yet far inside the 1e-6 float tolerance.
  fx.problem->set_horizon(honest.exact_makespan.to_double() * (1.0 - 1e-8));
  const auto out = nd::analysis::verify_deployment(*fx.problem, fx.solution, opt);
  EXPECT_FALSE(out.schedule_proved);
  EXPECT_GE(out.report.count_code(codes::kVerifyHorizon), 1) << out.report.to_table();
}

TEST(VerifyDeployment, RejectsReliabilityThresholdRaisedPastProduct) {
  const auto fx = heuristic_fixture();
  // The same instance rebuilt with R_th = 1 − 1e-12: no deployment meets it
  // (even duplicated tasks keep a larger failure mass), and the verifier must
  // prove that by interval refinement, not float guessing.
  nd::test::TinySpec tight;
  tight.r_th = 1.0 - 1e-12;
  const auto strict = nd::test::tiny_problem(tight);
  const auto out = nd::analysis::verify_deployment(*strict, fx.solution, {});
  EXPECT_FALSE(out.reliability_proved);
  EXPECT_GE(out.report.count_code(codes::kVerifyReliability), 1) << out.report.to_table();
}

TEST(VerifyDeployment, RejectsAssignmentOffMesh) {
  const auto fx = heuristic_fixture();
  auto bad = fx.solution;
  bad.proc[0] = fx.problem->mesh().num_procs() + 3;
  const auto out = nd::analysis::verify_deployment(*fx.problem, bad, {});
  EXPECT_FALSE(out.accepted());
  EXPECT_GE(out.report.count_code(codes::kVerifyAssign), 1) << out.report.to_table();
}

// ---------------------------------------------------------------------------
// Telemetry

TEST(ExactTelemetry, CountersObserveExactChecks) {
  if (!nd::obs::compiled_in()) {
    // Obs-OFF flavour: the macros compile to no-ops and stay silent.
    nd::obs::counter_add("exact.lp_checked", 1);
    SUCCEED();
    return;
  }
  ASSERT_TRUE(nd::obs::start());
  const auto p = simple_lp();
  (void)nd::analysis::certify_lp_exact(p, solved_cert(p));
  const auto fx = heuristic_fixture();
  (void)nd::analysis::verify_deployment(*fx.problem, fx.solution, {});
  const auto m = staircase_model();
  (void)nd::analysis::certify_bnb_exact(m, solved_audit(m));
  const auto totals = nd::obs::counter_totals();
  const auto profile = nd::obs::stop();
  EXPECT_GE(totals.count("exact.lp_checked"), std::size_t{1});
  EXPECT_GE(totals.at("exact.lp_checked"), 1);
  EXPECT_GE(totals.at("exact.bnb_bounds_reproved"), 1);
  EXPECT_GE(profile.values.count("exact.verify_ms"), std::size_t{1});
}

}  // namespace
