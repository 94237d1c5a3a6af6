// Tests for the certificate checkers (analysis/certify_lp,
// analysis/certify_bnb) and the differential cross-check harness.
//
// The pattern throughout: solve a small problem for real, assert the genuine
// certificate/audit is ACCEPTED, then hand-mutate one aspect at a time and
// assert the checker rejects it with the expected diagnostic code. A checker
// that accepts everything would pass the positive tests alone; the mutation
// matrix is what proves it actually checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "analysis/certify_bnb.hpp"
#include "analysis/certify_lp.hpp"
#include "analysis/crosscheck.hpp"
#include "analysis/diagnostics.hpp"
#include "lp/certificate.hpp"
#include "lp/simplex.hpp"
#include "lp/problem.hpp"
#include "milp/audit.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/model.hpp"

namespace {

namespace codes = nd::analysis::codes;
using nd::analysis::Report;
using nd::lp::Sense;

// ---------------------------------------------------------------------------
// LP certificates

// minimize x0 + 2 x1  s.t.  x0 + x1 >= 1,  x0 + x1 <= 3,  x in [0,1]^2.
// Optimum x = (1, 0), obj 1; the LE row is inactive at the optimum.
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

TEST(CertifyLp, AcceptsGenuineCertificate) {
  const auto p = simple_lp();
  const auto cert = solved_cert(p);
  const Report rep = nd::analysis::certify_lp(p, cert);
  EXPECT_EQ(rep.num_errors(), 0) << rep.to_table();
  EXPECT_NEAR(cert.obj, 1.0, 1e-9);
}

TEST(CertifyLp, RejectsTamperedObjective) {
  const auto p = simple_lp();
  auto cert = solved_cert(p);
  cert.obj += 0.25;
  const Report rep = nd::analysis::certify_lp(p, cert);
  EXPECT_GE(rep.count_code(codes::kLpCertObjective), 1) << rep.to_table();
}

TEST(CertifyLp, RejectsPrimalBoundViolation) {
  const auto p = simple_lp();
  auto cert = solved_cert(p);
  cert.x[0] = 1.5;  // above its upper bound of 1
  const Report rep = nd::analysis::certify_lp(p, cert);
  EXPECT_GE(rep.count_code(codes::kLpCertPrimal), 1) << rep.to_table();
}

TEST(CertifyLp, RejectsPrimalRowViolation) {
  const auto p = simple_lp();
  auto cert = solved_cert(p);
  cert.x = {0.2, 0.2};  // violates x0 + x1 >= 1
  const Report rep = nd::analysis::certify_lp(p, cert);
  EXPECT_GE(rep.count_code(codes::kLpCertPrimal), 1) << rep.to_table();
}

TEST(CertifyLp, RejectsWrongDualSign) {
  const auto p = simple_lp();
  auto cert = solved_cert(p);
  // Minimization with a GE row demands y >= 0 on that row.
  cert.y[0] = -1.0;
  const Report rep = nd::analysis::certify_lp(p, cert);
  EXPECT_GE(rep.count_code(codes::kLpCertDual), 1) << rep.to_table();
}

TEST(CertifyLp, RejectsSlacknessViolation) {
  const auto p = simple_lp();
  auto cert = solved_cert(p);
  // The LE row is inactive (activity 1 < 3): a nonzero dual on it breaks
  // complementary slackness even though the sign (y <= 0 on LE) is legal.
  cert.y[1] = -0.5;
  const Report rep = nd::analysis::certify_lp(p, cert);
  EXPECT_GE(rep.count_code(codes::kLpCertSlackness), 1) << rep.to_table();
}

TEST(CertifyLp, RejectsWrongStatusClaim) {
  const auto p = simple_lp();
  auto cert = solved_cert(p);
  cert.status = nd::lp::SolveStatus::kIterLimit;
  const Report rep = nd::analysis::certify_lp(p, cert);
  EXPECT_GE(rep.count_code(codes::kLpCertStatus), 1) << rep.to_table();
}

TEST(CertifyLp, AcceptsGenuineFarkasRay) {
  nd::lp::Problem p;
  p.add_var(0.0, 1.0, 1.0, "x0");
  p.add_row({{0, 1.0}}, Sense::GE, 2.0);  // x0 >= 2 with x0 <= 1: infeasible
  const nd::lp::Certificate cert = certificate_of(p);
  ASSERT_EQ(cert.status, nd::lp::SolveStatus::kInfeasible);
  ASSERT_TRUE(cert.has_farkas_ray());
  const Report rep = nd::analysis::certify_lp(p, cert);
  EXPECT_EQ(rep.num_errors(), 0) << rep.to_table();
}

TEST(CertifyLp, RejectsBogusFarkasRay) {
  nd::lp::Problem p;
  p.add_var(0.0, 1.0, 1.0, "x0");
  p.add_row({{0, 1.0}}, Sense::GE, 2.0);
  auto cert = certificate_of(p);
  // A zero ray proves nothing: the certified gap collapses to 0.
  std::fill(cert.farkas.begin(), cert.farkas.end(), 0.0);
  const Report rep = nd::analysis::certify_lp(p, cert);
  EXPECT_GE(rep.count_code(codes::kLpCertFarkas), 1) << rep.to_table();
}

TEST(CertifyLp, RejectsFarkasClaimOnFeasibleProblem) {
  // A structurally valid ray over a FEASIBLE problem cannot certify a
  // positive gap; the checker must refuse it.
  const auto p = simple_lp();
  nd::lp::Certificate cert;
  cert.status = nd::lp::SolveStatus::kInfeasible;
  cert.farkas = {1.0, 0.0};  // "x0 + x1 >= 1 is unreachable" — it is not
  const Report rep = nd::analysis::certify_lp(p, cert);
  EXPECT_GE(rep.count_code(codes::kLpCertFarkas), 1) << rep.to_table();
}

// ---------------------------------------------------------------------------
// Branch-and-bound audit replay

// minimize -x0 - 0.9 x1  s.t.  x0 + x1 <= 7.5,  x0, x1 in [0,10] integer.
// The LP relaxation (7.5, 0) is fractional, so the solver must branch; the
// staircase of children gives the replayer a real tree (branched, integral,
// bound-pruned and infeasible nodes) while still solving in milliseconds.
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
  EXPECT_NEAR(res.obj, -7.0, 1e-6);
  return audit;
}

int find_node(const nd::milp::AuditLog& log, nd::milp::NodeDisp disp) {
  for (const auto& n : log.nodes) {
    if (n.disp == disp) return n.id;
  }
  return -1;
}

TEST(CertifyBnb, AcceptsGenuineAudit) {
  const auto m = staircase_model();
  const auto audit = solved_audit(m);
  const Report rep = nd::analysis::certify_bnb(m, audit);
  EXPECT_EQ(rep.num_errors(), 0) << rep.to_table();
}

TEST(CertifyBnb, AuditSurvivesJsonRoundTrip) {
  const auto m = staircase_model();
  const auto audit = solved_audit(m);
  const auto round = nd::milp::audit_from_json(nd::milp::audit_to_json(audit));
  EXPECT_EQ(round.nodes.size(), audit.nodes.size());
  const Report rep = nd::analysis::certify_bnb(m, round);
  EXPECT_EQ(rep.num_errors(), 0) << rep.to_table();
}

TEST(CertifyBnb, RejectsTamperedIncumbent) {
  const auto m = staircase_model();
  auto audit = solved_audit(m);
  audit.obj -= 0.5;  // claims an incumbent the tree never produced
  const Report rep = nd::analysis::certify_bnb(m, audit);
  EXPECT_GE(rep.count_code(codes::kBnbIncumbentMismatch), 1) << rep.to_table();
}

TEST(CertifyBnb, RejectsBoundAboveIncumbent) {
  const auto m = staircase_model();
  auto audit = solved_audit(m);
  audit.best_bound = audit.obj + 1.0;  // a lower bound cannot exceed the optimum
  const Report rep = nd::analysis::certify_bnb(m, audit);
  EXPECT_GE(rep.count_code(codes::kBnbBoundRegression), 1) << rep.to_table();
}

TEST(CertifyBnb, RejectsBrokenTreeStructure) {
  const auto m = staircase_model();
  auto audit = solved_audit(m);
  ASSERT_GE(audit.nodes.size(), 2u);
  audit.nodes[1].parent = 1;  // self-parent: ids must strictly increase
  const Report rep = nd::analysis::certify_bnb(m, audit);
  EXPECT_GE(rep.count_code(codes::kBnbStructure), 1) << rep.to_table();
}

TEST(CertifyBnb, RejectsDomainCoverGap) {
  const auto m = staircase_model();
  auto audit = solved_audit(m);
  // Shrink one branch child's interval so the two children no longer cover
  // the parent domain — the classic "solver skipped part of the space" bug.
  bool mutated = false;
  for (auto& n : audit.nodes) {
    if (n.parent >= 0 && n.hi > n.lo + 0.5) {
      n.hi -= 1.0;
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated) << "no shrinkable branch interval in the tree";
  const Report rep = nd::analysis::certify_bnb(m, audit);
  EXPECT_GE(rep.count_code(codes::kBnbCoverGap), 1) << rep.to_table();
}

TEST(CertifyBnb, RejectsIllegalPrune) {
  const auto m = staircase_model();
  auto audit = solved_audit(m);
  const int id = find_node(audit, nd::milp::NodeDisp::kPrunedBound);
  ASSERT_GE(id, 0) << "expected at least one bound-pruned node";
  // Rewrite history: the node's recorded bound now says it was strictly
  // better than the final incumbent, so pruning it was unsound.
  audit.nodes[static_cast<std::size_t>(id)].bound = audit.obj - 10.0;
  const Report rep = nd::analysis::certify_bnb(m, audit);
  EXPECT_GE(rep.count_code(codes::kBnbPruneIllegal), 1) << rep.to_table();
}

TEST(CertifyBnb, RejectsLimitNodeUnderOptimalClaim) {
  const auto m = staircase_model();
  auto audit = solved_audit(m);
  const int id = find_node(audit, nd::milp::NodeDisp::kPrunedBound);
  ASSERT_GE(id, 0);
  // An optimality claim with an unexplored leaf in the tree is unsound.
  audit.nodes[static_cast<std::size_t>(id)].disp = nd::milp::NodeDisp::kLimit;
  const Report rep = nd::analysis::certify_bnb(m, audit);
  EXPECT_GE(rep.count_code(codes::kBnbLimitNotOptimal), 1) << rep.to_table();
}

TEST(CertifyBnb, RejectsUnjustifiedRootFixing) {
  const auto m = staircase_model();
  auto audit = solved_audit(m);
  // Claim variable 1 was frozen to its lower bound at the root. The root
  // duals carry no reduced-cost justification for it.
  audit.root_fixings.push_back({1, true, 0.0, 0.0});
  const Report rep = nd::analysis::certify_bnb(m, audit);
  EXPECT_GE(rep.count_code(codes::kBnbRootFixing), 1) << rep.to_table();
}

TEST(CertifyBnb, RejectsCorruptedRootCertificate) {
  const auto m = staircase_model();
  auto audit = solved_audit(m);
  ASSERT_FALSE(audit.root_cert.y.empty());
  audit.root_cert.obj += 1.0;  // root certificate no longer matches anything
  const Report rep = nd::analysis::certify_bnb(m, audit);
  EXPECT_GT(rep.num_errors(), 0) << rep.to_table();
}

// ---------------------------------------------------------------------------
// Differential cross-check harness

TEST(Crosscheck, SingleSeedRunsClean) {
  nd::analysis::CrosscheckOptions opt;
  opt.milp_time_limit_s = 5.0;
  opt.verbose = false;
  const auto out = nd::analysis::crosscheck_seed(1, opt);
  EXPECT_EQ(out.report.num_errors(), 0) << out.report.to_table();
}

}  // namespace
