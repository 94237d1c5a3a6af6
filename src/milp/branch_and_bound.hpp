// Branch-and-bound MILP solver.
//
// Strategy: depth-first with plunging (the child nearest the fractional LP
// value is explored first), most-fractional branching, one simplex engine
// per worker reused along its walk (branching = bound change + dual
// re-solve), warm-start incumbents, and wall-clock/node limits. One driver
// (parallel_bnb.cpp) serves every worker count. This stands in for the
// commercial solver (Gurobi) used in the paper; see DESIGN.md.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "lp/presolve.hpp"
#include "milp/model.hpp"

namespace nd::milp {

enum class MipStatus : std::uint8_t {
  kOptimal,     ///< proved optimal within gap tolerances
  kFeasible,    ///< limit hit with an incumbent in hand
  kInfeasible,  ///< proved infeasible
  kUnknown,     ///< limit hit with no incumbent
};

const char* to_string(MipStatus s);

struct AuditLog;  // milp/audit.hpp

/// Integrality tolerance of the tree search.
inline constexpr double kIntTol = 1e-6;
/// Optimality gaps: a node is pruned once its bound is within
/// max(kAbsGap, kRelGap·|incumbent|) of the incumbent.
inline constexpr double kAbsGap = 1e-9;
inline constexpr double kRelGap = 1e-6;

struct MipOptions {
  double time_limit_s = 120.0;
  std::int64_t node_limit = 50'000'000;
  /// Workers for the tree search (parallel_bnb.cpp). Worker 0 runs on the
  /// calling thread; N > 1 adds a pool of N - 1 threads. Workers pull open
  /// subtrees from a shared best-bound queue, share the incumbent, and write
  /// per-worker audit shards that are merged by node id at the end; 1
  /// (default) builds no pool. 0 means ThreadPool::default_threads(). The
  /// proved optimum is identical for every worker count; the tree shape (and
  /// therefore the audit log) is not, but every log certifies.
  int num_threads = 1;
  /// Optional integer-feasible starting point (e.g. from the heuristic);
  /// silently ignored if it fails feasibility validation.
  const std::vector<double>* warm_start = nullptr;
  /// Optional problem-specific completion heuristic: given a node's LP point,
  /// try to produce a full integer-feasible point (e.g. complete integral
  /// placement decisions with a constructive schedule). If the returned
  /// point's objective matches the node's LP bound within the gap
  /// tolerances, the node is solved exactly and pruned.
  std::function<bool(const std::vector<double>& lp_point, std::vector<double>* out)>
      completion;
  /// Optional audit sink: when set, the solver overwrites it with a complete
  /// replayable trace of the tree (see milp/audit.hpp and
  /// analysis/certify_bnb.hpp). Costs one extra root-certificate extraction
  /// and O(1) bookkeeping per node.
  AuditLog* audit = nullptr;
  /// Run the proof-carrying root presolve (milp/presolve.hpp) before the
  /// tree search: activity-based bound propagation, coefficient tightening,
  /// redundant-row and empty-column elimination, to a fixpoint. The tree is
  /// then searched on the REDUCED model; the result (and the audit log, when
  /// requested) is lifted back, and the audit carries the full reduction log
  /// so certify_bnb can re-prove every reduction independently.
  bool presolve = true;
  /// Optional instance-level reductions (dominance / symmetry fixings from
  /// analysis/presolve) to prepend to the root presolve. Must be proved
  /// against THIS model; borrowed pointer, not owned. Ignored when
  /// `presolve` is false.
  const lp::ReductionLog* instance_reductions = nullptr;
  /// Emit counters/spans into the obs telemetry layer (node dispositions,
  /// queue depth, donations, cold vs warm re-solves, the incumbent timeline,
  /// per-worker busy time). Only observable while an obs session is
  /// collecting, and free when NOCDEPLOY_OBS is compiled out; set false to
  /// keep a solve out of an enclosing session's numbers.
  bool telemetry = true;
};

struct MipResult {
  MipStatus status = MipStatus::kUnknown;
  double obj = 0.0;         ///< incumbent objective (valid unless kUnknown/kInfeasible)
  double best_bound = 0.0;  ///< proved lower bound on the optimum
  std::vector<double> x;    ///< incumbent point
  std::int64_t nodes = 0;
  double seconds = 0.0;
  int lp_iterations = 0;
  /// Root presolve tallies from the proof-carrying reduction log that
  /// produced the reduced model (all zero when MipOptions::presolve is off).
  lp::PresolveStats presolve_stats;

  [[nodiscard]] bool has_solution() const {
    return status == MipStatus::kOptimal || status == MipStatus::kFeasible;
  }
  [[nodiscard]] double gap() const;
};

MipResult solve(const Model& model, const MipOptions& opt = {});

}  // namespace nd::milp
