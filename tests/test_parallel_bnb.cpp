// Tests for the branch-and-bound tree search (milp/parallel_bnb) at 1, 2 and
// 4 workers, the pinned 1-worker walk, and the audit-shard merge
// (milp::merge_audit_shards, analysis::certify_bnb_shards).
//
// The determinism contract under test: for every thread count the solver
// proves the SAME optimal objective, and every audit log it emits — whatever
// tree shape the schedule produced — replays cleanly through
// analysis::certify_bnb. The single-thread result is the reference; it is
// itself validated against brute force in test_milp.cpp.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "analysis/certify_bnb.hpp"
#include "analysis/diagnostics.hpp"
#include "common/prng.hpp"
#include "heuristic/phases.hpp"
#include "milp/audit.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/model.hpp"
#include "model/formulation.hpp"
#include "obs/obs.hpp"
#include "test_util.hpp"

namespace {

namespace codes = nd::analysis::codes;
using nd::analysis::Report;
using nd::lp::Sense;
using nd::milp::AuditLog;
using nd::milp::MipOptions;
using nd::milp::MipStatus;
using nd::milp::Model;

// minimize -x0 - 0.9 x1  s.t.  x0 + x1 <= 7.5,  x0, x1 in [0,10] integer.
// Fractional LP relaxation, so every thread count has to branch.
Model staircase_model() {
  Model m;
  const int x0 = m.add_int(0.0, 10.0, -1.0, "x0");
  const int x1 = m.add_int(0.0, 10.0, -0.9, "x1");
  m.add_row({{x0, 1.0}, {x1, 1.0}}, Sense::LE, 7.5);
  return m;
}

/// Seeded random binary program with a handful of mixed-sense rows — the
/// same family the 1-worker solve is brute-force-validated on.
Model random_binary_model(int seed) {
  nd::Prng g(static_cast<std::uint64_t>(seed) * 104729 + 17);
  const int n = static_cast<int>(g.uniform_int(6, 12));
  const int rows = static_cast<int>(g.uniform_int(2, 6));
  Model m;
  for (int j = 0; j < n; ++j) m.add_bin(g.uniform(-5.0, 5.0));
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < n; ++j) {
      if (g.bernoulli(0.7)) coef.emplace_back(j, g.uniform(-3.0, 3.0));
    }
    if (coef.empty()) coef.emplace_back(0, 1.0);
    const auto sense = static_cast<Sense>(g.uniform_int(0, 1));
    m.add_row(coef, sense, g.uniform(-2.0, 4.0));
  }
  return m;
}

struct SolveOut {
  nd::milp::MipResult res;
  AuditLog audit;
};

SolveOut solve_with_threads(const Model& m, int threads, MipOptions opt = {}) {
  SolveOut out;
  opt.num_threads = threads;
  opt.audit = &out.audit;
  out.res = nd::milp::solve(m, opt);
  return out;
}

// ---------------------------------------------------------------------------
// Determinism: same proved objective at 1, 2 and 4 threads; every audit
// certifies.

TEST(ParallelBnb, StaircaseSameObjectiveEveryThreadCount) {
  const Model m = staircase_model();
  const SolveOut ref = solve_with_threads(m, 1);
  ASSERT_EQ(ref.res.status, MipStatus::kOptimal);
  EXPECT_NEAR(ref.res.obj, -7.0, 1e-6);
  for (const int threads : {2, 4}) {
    const SolveOut par = solve_with_threads(m, threads);
    ASSERT_EQ(par.res.status, MipStatus::kOptimal) << "threads " << threads;
    EXPECT_NEAR(par.res.obj, ref.res.obj, 1e-6) << "threads " << threads;
    EXPECT_TRUE(m.is_mip_feasible(par.res.x, 1e-6)) << "threads " << threads;
    const Report rep = nd::analysis::certify_bnb(m, par.audit);
    EXPECT_EQ(rep.num_errors(), 0) << "threads " << threads << "\n" << rep.to_table();
  }
}

class ParallelBnbSeeds : public ::testing::TestWithParam<int> {};

TEST_P(ParallelBnbSeeds, SameProvedOptimumAndCertifiableAudit) {
  const Model m = random_binary_model(GetParam());
  const SolveOut ref = solve_with_threads(m, 1);
  {
    const Report rep = nd::analysis::certify_bnb(m, ref.audit);
    EXPECT_EQ(rep.num_errors(), 0) << "1 thread\n" << rep.to_table();
  }
  for (const int threads : {2, 4}) {
    const SolveOut par = solve_with_threads(m, threads);
    ASSERT_EQ(par.res.status, ref.res.status)
        << "threads " << threads << " seed " << GetParam();
    if (ref.res.status == MipStatus::kOptimal) {
      const double scale = 1.0 + std::abs(ref.res.obj);
      EXPECT_NEAR(par.res.obj, ref.res.obj, 1e-5 * scale)
          << "threads " << threads << " seed " << GetParam();
      EXPECT_TRUE(m.is_mip_feasible(par.res.x, 1e-6));
    }
    const Report rep = nd::analysis::certify_bnb(m, par.audit);
    EXPECT_EQ(rep.num_errors(), 0)
        << "threads " << threads << " seed " << GetParam() << "\n" << rep.to_table();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelBnbSeeds, ::testing::Range(0, 5));

// ---------------------------------------------------------------------------
// The optional hooks at several workers.

TEST(ParallelBnb, WarmStartSeedsTheSharedIncumbent) {
  const Model m = staircase_model();
  const std::vector<double> warm = {7.0, 0.0};  // feasible, obj -7.0: optimal
  MipOptions opt;
  opt.warm_start = &warm;
  const SolveOut par = solve_with_threads(m, 4, opt);
  ASSERT_EQ(par.res.status, MipStatus::kOptimal);
  EXPECT_NEAR(par.res.obj, -7.0, 1e-6);
  EXPECT_TRUE(par.audit.warm_accepted);
  const Report rep = nd::analysis::certify_bnb(m, par.audit);
  EXPECT_EQ(rep.num_errors(), 0) << rep.to_table();
}

TEST(ParallelBnb, CompletionHeuristicRunsOnWorkers) {
  // Knapsack with positive weights: flooring any LP point stays feasible, so
  // a floor-completion is a valid (if weak) heuristic on every node.
  Model m;
  const std::vector<double> w = {3.0, 5.0, 7.0, 4.0, 6.0};
  for (std::size_t j = 0; j < w.size(); ++j) {
    m.add_int(0.0, 3.0, -1.0 - 0.1 * static_cast<double>(j));
  }
  std::vector<std::pair<int, double>> coef;
  for (std::size_t j = 0; j < w.size(); ++j) {
    coef.emplace_back(static_cast<int>(j), w[j]);
  }
  m.add_row(coef, Sense::LE, 21.0);

  MipOptions opt;
  opt.completion = [](const std::vector<double>& lp, std::vector<double>* out) {
    out->resize(lp.size());
    for (std::size_t j = 0; j < lp.size(); ++j) {
      (*out)[j] = std::floor(lp[j] + 1e-9);
    }
    return true;
  };
  const SolveOut ref = solve_with_threads(m, 1, opt);
  ASSERT_EQ(ref.res.status, MipStatus::kOptimal);
  const SolveOut par = solve_with_threads(m, 4, opt);
  ASSERT_EQ(par.res.status, MipStatus::kOptimal);
  EXPECT_NEAR(par.res.obj, ref.res.obj, 1e-6);
  const Report rep = nd::analysis::certify_bnb(m, par.audit);
  EXPECT_EQ(rep.num_errors(), 0) << rep.to_table();
}

TEST(ParallelBnb, InfeasibleModelProvedOnEveryThreadCount) {
  Model m;
  const int x0 = m.add_bin(1.0);
  const int x1 = m.add_bin(1.0);
  m.add_row({{x0, 1.0}, {x1, 1.0}}, Sense::GE, 3.0);  // two binaries can't sum to 3
  for (const int threads : {1, 2, 4}) {
    const SolveOut out = solve_with_threads(m, threads);
    EXPECT_EQ(out.res.status, MipStatus::kInfeasible) << "threads " << threads;
    const Report rep = nd::analysis::certify_bnb(m, out.audit);
    EXPECT_EQ(rep.num_errors(), 0) << "threads " << threads << "\n" << rep.to_table();
  }
}

TEST(ParallelBnb, NodeLimitYieldsHonestNonOptimalAudit) {
  const Model m = random_binary_model(1);
  MipOptions opt;
  opt.node_limit = 3;
  // This test targets the raw tree-limit path: root presolve shrinks the
  // model enough that three nodes can prove optimality, so turn it off.
  opt.presolve = false;
  const SolveOut out = solve_with_threads(m, 2, opt);
  EXPECT_NE(out.res.status, MipStatus::kOptimal);
  if (out.res.has_solution()) {
    EXPECT_LE(out.res.best_bound, out.res.obj + 1e-9);
  }
  // A truncated tree (limit / unprocessed leaves) must still replay cleanly
  // for its claimed non-proved status.
  const Report rep = nd::analysis::certify_bnb(m, out.audit);
  EXPECT_EQ(rep.num_errors(), 0) << rep.to_table();
}

TEST(ParallelBnb, ThreadCountZeroUsesDefaultAndSolves) {
  const Model m = staircase_model();
  MipOptions opt;
  opt.num_threads = 0;  // ThreadPool::default_threads(), whatever that is here
  AuditLog audit;
  opt.audit = &audit;
  const auto res = nd::milp::solve(m, opt);
  ASSERT_EQ(res.status, MipStatus::kOptimal);
  EXPECT_NEAR(res.obj, -7.0, 1e-6);
  const Report rep = nd::analysis::certify_bnb(m, audit);
  EXPECT_EQ(rep.num_errors(), 0) << rep.to_table();
}

// ---------------------------------------------------------------------------
// The 1-worker walk, pinned. A single worker takes every node after the root
// warm, walking the tree depth-first with one dual re-solve per node; these
// figures are that walk's node count, LP iterations and per-disposition
// tallies, so any change to the node order, to the warm/cold choice or to
// the engine's bound-change sequence shows up here as an exact mismatch.

struct Walk {
  /// "status nodes lp_iterations | branched bound-pruned infeasible integral
  /// completion-closed parent-bound-skipped"
  std::string tree;
  /// "cold_solves warm_resolves" of the engine (telemetry builds only).
  std::string lp_calls;
};

Walk walk_of(const Model& m, MipOptions opt = {}) {
  const bool observing = nd::obs::start();
  const SolveOut out = solve_with_threads(m, 1, std::move(opt));
  Walk w;
  if (observing) {
    const nd::obs::Profile p = nd::obs::stop();
    const auto count = [&p](const char* name) {
      const auto it = p.counters.find(name);
      return std::to_string(it == p.counters.end() ? 0 : it->second);
    };
    w.lp_calls = count("bnb.cold_solves") + " " + count("bnb.warm_resolves");
  }
  std::array<int, 8> disp{};
  for (const auto& n : out.audit.nodes) ++disp[static_cast<std::size_t>(n.disp)];
  using D = nd::milp::NodeDisp;
  const auto at = [&disp](D d) { return std::to_string(disp[static_cast<std::size_t>(d)]); };
  w.tree = std::string(nd::milp::to_string(out.res.status)) + " " +
           std::to_string(out.res.nodes) + " " + std::to_string(out.res.lp_iterations) + " | " +
           at(D::kBranched) + " " + at(D::kPrunedBound) + " " + at(D::kPrunedInfeasible) + " " +
           at(D::kIntegral) + " " + at(D::kCompletionClosed) + " " + at(D::kSkippedParentBound);
  return w;
}

void expect_walk(const Walk& w, const char* tree, const char* lp_calls) {
  EXPECT_EQ(w.tree, tree);
  if (nd::obs::compiled_in()) {
    EXPECT_EQ(w.lp_calls, lp_calls);
  }
}

TEST(BnbWalkPin, Staircase) {
  expect_walk(walk_of(staircase_model()), "optimal 19 16 | 9 5 4 1 0 0", "5 15");
}

TEST(BnbWalkPin, RandomBinarySeeds) {
  // Without root presolve, so every seed keeps a tree to walk.
  struct Pin {
    int seed;
    const char* tree;
    const char* lp_calls;
  };
  const std::vector<Pin> pinned = {
      {1, "optimal 5 8 | 2 0 2 1 0 0", "3 3"},
      {2, "optimal 21 73 | 10 4 5 2 0 0", "10 15"},
      {3, "infeasible 53 160 | 26 0 27 0 0 0", "37 26"},
      {8, "infeasible 7 24 | 3 0 4 0 0 0", "5 3"},
      {10, "optimal 11 55 | 5 0 4 2 0 0", "8 7"},
      {11, "optimal 9 22 | 4 0 2 3 0 0", "5 6"},
  };
  MipOptions opt;
  opt.presolve = false;
  for (const Pin& pin : pinned) {
    SCOPED_TRACE("seed " + std::to_string(pin.seed));
    expect_walk(walk_of(random_binary_model(pin.seed), opt), pin.tree, pin.lp_calls);
  }
}

TEST(BnbWalkPin, Deployment3Task2x2) {
  // Heuristic warm start, so the root's reduced-cost fixing and parent-bound
  // skips take part; a node budget keeps the run short.
  const auto p = nd::test::tiny_problem({.num_tasks = 3});
  const auto h = nd::heuristic::solve_heuristic(*p);
  ASSERT_TRUE(h.feasible) << h.why;
  const nd::model::Formulation f(*p);
  const std::vector<double> warm = f.encode(h.solution);
  MipOptions opt;
  opt.warm_start = &warm;
  opt.node_limit = 150;
  expect_walk(walk_of(f.model(), opt), "feasible 151 14503 | 81 67 1 1 0 1", "15 149");
}

// ---------------------------------------------------------------------------
// Shard merge unit behaviour.

TEST(AuditShards, MergeRestoresIdOrderAndRefiltersIncumbents) {
  using nd::milp::AuditNode;
  using nd::milp::AuditShard;
  // Worker A processed nodes 0 and 2; worker B processed node 1. Wall-clock
  // order was 2 before 1: node 2 recorded the first update (-3), then node 1
  // beat it (-5). Both were genuine improvements when recorded, but in id
  // order node 2's -3 follows node 1's -5 and is no longer improving — the
  // merge must drop its flag.
  AuditNode n0, n1, n2;
  n0.id = 0;
  n1.id = 1;
  n1.incumbent_update = true;
  n1.incumbent_obj = -5.0;
  n2.id = 2;
  n2.incumbent_update = true;
  n2.incumbent_obj = -3.0;
  AuditShard a, b;
  a.nodes = {n0, n2};
  b.nodes = {n1};
  AuditLog log;
  ASSERT_TRUE(nd::milp::merge_audit_shards({a, b}, &log));
  ASSERT_EQ(log.nodes.size(), 3u);
  EXPECT_EQ(log.nodes[0].id, 0);
  EXPECT_EQ(log.nodes[1].id, 1);
  EXPECT_EQ(log.nodes[2].id, 2);
  EXPECT_TRUE(log.nodes[1].incumbent_update);
  EXPECT_NEAR(log.nodes[1].incumbent_obj, -5.0, 0.0);
  EXPECT_FALSE(log.nodes[2].incumbent_update);  // -3 after -5: dropped
}

TEST(AuditShards, MergeKeepsStrictlyImprovingTrajectory) {
  using nd::milp::AuditNode;
  using nd::milp::AuditShard;
  AuditNode n0, n1;
  n0.id = 0;
  n0.incumbent_update = true;
  n0.incumbent_obj = -2.0;
  n1.id = 1;
  n1.incumbent_update = true;
  n1.incumbent_obj = -4.0;
  AuditLog log;
  log.warm_accepted = true;
  log.warm_obj = -1.0;
  ASSERT_TRUE(nd::milp::merge_audit_shards({AuditShard{{n0, n1}}}, &log));
  EXPECT_TRUE(log.nodes[0].incumbent_update);
  EXPECT_TRUE(log.nodes[1].incumbent_update);
}

TEST(AuditShards, MergeRejectsNonContiguousIds) {
  using nd::milp::AuditNode;
  using nd::milp::AuditShard;
  AuditNode n0, n2;
  n0.id = 0;
  n2.id = 2;  // id 1 missing
  AuditLog log;
  EXPECT_FALSE(nd::milp::merge_audit_shards({AuditShard{{n0, n2}}}, &log));
  EXPECT_TRUE(log.nodes.empty());
}

TEST(AuditShards, CertifyShardsReportsCorruptRecording) {
  using nd::milp::AuditNode;
  using nd::milp::AuditShard;
  const Model m = staircase_model();
  AuditNode n0, n0dup;
  n0.id = 0;
  n0dup.id = 0;  // duplicate id
  const Report rep = nd::analysis::certify_bnb_shards(
      m, {AuditShard{{n0}}, AuditShard{{n0dup}}}, AuditLog{});
  EXPECT_GE(rep.count_code(codes::kBnbStructure), 1) << rep.to_table();
}

TEST(AuditShards, CertifyShardsAcceptsRealisticSplit) {
  // Split a genuine single-thread log into two interleaved shards and check
  // the merge + replay pipeline reassembles and accepts it.
  const Model m = random_binary_model(2);
  const SolveOut ref = solve_with_threads(m, 1);
  using nd::milp::AuditShard;
  AuditShard even, odd;
  for (const auto& n : ref.audit.nodes) {
    (n.id % 2 == 0 ? even : odd).nodes.push_back(n);
  }
  AuditLog skeleton = ref.audit;
  skeleton.nodes.clear();
  const Report rep =
      nd::analysis::certify_bnb_shards(m, {even, odd}, std::move(skeleton));
  EXPECT_EQ(rep.num_errors(), 0) << rep.to_table();
}

}  // namespace
