// Differential MILP ↔ heuristic ↔ simulator cross-check.
//
// For a seeded random deployment instance the harness runs the three
// independent solution paths the repo implements and asserts the relations
// that must hold between them:
//   * the heuristic's deployment passes deploy::validate and the event
//     simulator reproduces its analytic schedule,
//   * the MILP (warm-started from the heuristic, with the completion
//     heuristic and a full audit log) solves the same instance; its
//     deployment also validates and simulates cleanly,
//   * the heuristic's BE objective never beats the MILP's PROVED lower
//     bound (a violation means either bound or validator is wrong),
//   * the energies the evaluator computes match the objectives both solvers
//     claim (model ↔ evaluator consistency),
//   * the MILP run itself is certified: the root LP certificate verifies
//     and the branch-and-bound audit log replays cleanly
//     (analysis/certify_lp, analysis/certify_bnb),
//   * a simulated-annealing baseline explores the same space; when it finds
//     a feasible state that deployment clears the same validator/simulator/
//     verifier battery and respects the MILP's lower bound,
//   * every deployment is additionally proved by the exact static verifier
//     and the root LP certificate is re-proved in rational arithmetic
//     (analysis/exact/),
//   * with presolve on and a proved optimum, a presolve-off re-solve must
//     agree with it.
//
// Every defect becomes an error diagnostic; a clean report over many seeds
// is the repo's strongest end-to-end correctness statement.
#pragma once

#include <cstdint>

#include "analysis/diagnostics.hpp"
#include "milp/branch_and_bound.hpp"

namespace nd::analysis {

struct CrosscheckOptions {
  // Instance shape (mirrors `nocdeploy-cli gen` defaults, scaled down so a
  // MILP solve stays in the sub-second range under sanitizers).
  int num_tasks = 5;
  int rows = 2;
  int cols = 2;
  /// Looser than the CLI's gen default (1.5): at 1.5 roughly half the random
  /// instances are heuristic-infeasible, which is a different test.
  double alpha = 2.0;
  /// Per-link heterogeneity of the mesh (noc::MeshParams::variation). The
  /// default keeps the historical instances; 0 makes the link tensors
  /// uniform, which gives the grid provable mesh automorphisms — the presolve
  /// regression corpus uses that so the symmetry reductions genuinely fire.
  double mesh_variation = 0.35;

  /// Wall-clock cap per MILP solve — this bounds per-seed cost everywhere,
  /// sanitizer builds included. Instances the solver cannot finish in time
  /// end kFeasible, which downgrades the optimality comparison to a (still
  /// sound) bound comparison instead of failing the harness.
  double milp_time_limit_s = 8.0;
  /// Threads for each MILP solve (milp::MipOptions::num_threads): 1 runs the
  /// tree search on the calling thread alone, >1 adds work-sharing pool
  /// workers, 0 the machine default. The certify stage replays the merged
  /// audit either way, so crosscheck doubles as an end-to-end test of the
  /// parallel path.
  int num_threads = 1;
  /// Run the MILP with the proof-carrying presolve (instance reductions +
  /// model passes). Off reproduces the raw-model solve exactly. On, a
  /// proved-optimal seed is re-solved with presolve off and the two runs
  /// must agree: each incumbent must respect the other run's proved lower
  /// bound, and the objectives must match within the solver's own gap
  /// tolerances plus the derived claim envelope. Divergence means a
  /// presolve reduction cut off the optimum.
  bool presolve = true;
  bool run_simulation = true; ///< event-simulate both deployments
  /// Iteration budget for the annealing leg; 0 disables it. Annealing is
  /// incomplete, so an infeasible outcome is a warning, not a defect.
  int anneal_iterations = 6000;
  bool verbose = false;       ///< per-seed progress on stdout
};

struct SeedOutcome {
  Report report;
  double heuristic_be = 0.0;  ///< heuristic BE objective [J]
  double anneal_be = 0.0;     ///< annealing BE objective [J] (0 when skipped)
  double milp_obj = 0.0;      ///< MILP incumbent objective [J]
  double milp_bound = 0.0;    ///< MILP proved lower bound [J]
  milp::MipStatus milp_status = milp::MipStatus::kUnknown;
  std::int64_t milp_nodes = 0;
  /// Root presolve tallies of the (presolve-on) MILP solve.
  lp::PresolveStats presolve_stats;
  /// Instance-level proof-carrying fixings seeded into that solve.
  int instance_fixings = 0;
};

/// Run the full differential pipeline on one seed.
SeedOutcome crosscheck_seed(std::uint64_t seed, const CrosscheckOptions& opt = {});

/// Run seeds [first_seed, first_seed + count); diagnostics come back with
/// subjects prefixed "seed<S>/".
Report crosscheck_range(std::uint64_t first_seed, int count,
                        const CrosscheckOptions& opt = {});

}  // namespace nd::analysis
