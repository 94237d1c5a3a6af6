// Traced-run probes, once per instance and outside the timed passes: model
// build and presolve cost and size, and on the milp workloads the LP kernels
// on the presolved root LP and its optimal basis. Public library calls only.
#include <cmath>
#include <vector>

#include "analysis/presolve/instance_presolve.hpp"
#include "heuristic/phases.hpp"
#include "lp/basis_lu.hpp"
#include "lp/certificate.hpp"
#include "lp/simplex.hpp"
#include "lp/sparse.hpp"
#include "milp/presolve.hpp"
#include "model/formulation.hpp"
#include "perfbench.hpp"

namespace pb {

using namespace nd;  // NOLINT(google-build-using-namespace)

namespace {

/// Mean microseconds of one kernel call, repeated until ~20 ms have passed
/// (at least 5 calls) so a sub-microsecond solve still gets a stable figure.
template <typename Fn>
double mean_us(Fn&& fn) {
  const std::int64_t t0 = obs::now_ns();
  int reps = 0;
  std::int64_t now = t0;
  while (reps < 5 || now - t0 < 20'000'000) {
    fn();
    ++reps;
    now = obs::now_ns();
  }
  return static_cast<double>(now - t0) * 1e-3 / reps;
}

}  // namespace

void probe_instance(const Spec& spec, const Instance& inst, Tracer& tr,
                    std::map<std::string, double>& out) {
  const deploy::DeploymentProblem& p = *inst.problem;
  Stage probe(tr, "probe", -1);
  const int root = probe.id();

  heuristic::HeuristicOptions hopt;
  hopt.telemetry = false;
  const heuristic::HeuristicResult h = heuristic::solve_heuristic(p, hopt);
  std::unique_ptr<model::Formulation> f;
  {
    Stage s(tr, "model.build", root);
    f = std::make_unique<model::Formulation>(p);
    out["model.build_ms"] += s.stop() * 1e3;
  }
  out["model.rows"] += f->model().num_rows();
  out["model.cols"] += f->model().num_vars();
  out["model.nnz"] += static_cast<double>(model_nnz(*f));
  std::vector<double> warm;
  if (h.feasible) warm = f->encode(h.solution);
  analysis::InstancePresolveOptions iopt;
  if (h.feasible) iopt.warm = &warm;
  analysis::InstancePresolveResult ipre;
  {
    Stage s(tr, "presolve.instance", root);
    ipre = analysis::instance_reductions(*f, iopt);
    out["presolve.instance_ms"] += s.stop() * 1e3;
  }
  out["presolve.fixings"] += ipre.dominance_fixings + ipre.twin_fixings + ipre.orbit_fixings;
  milp::PresolvedModel pm;
  {
    Stage s(tr, "presolve.model", root);
    pm = milp::presolve_model(f->model(), &ipre.log);
    out["presolve.model_ms"] += s.stop() * 1e3;
  }
  out["presolve.rows_removed"] += pm.map.stats.rows_removed;
  out["presolve.cols_removed"] += pm.map.stats.cols_removed;
  if (!spec.milp) return;  // paper scale: no LP solve
  if (pm.map.infeasible) return;

  const lp::Problem& root_lp = pm.reduced.lp();
  lp::Simplex::Options sopt;
  sopt.pricing = lp::Pricing::kDantzig;  // the pricing the tree search pins
  lp::Simplex engine(root_lp, sopt);
  lp::SolveStatus st{};
  {
    Stage s(tr, "lp.root.solve", root);
    st = engine.solve();
    out["lp.root.solve_ms"] += s.stop() * 1e3;
  }
  const lp::Simplex::Counters& c = engine.counters();
  out["lp.root.pivots"] += static_cast<double>(c.pivots);
  out["lp.root.phase1_iters"] += static_cast<double>(c.phase1_iters);
  out["lp.root.refactors"] += static_cast<double>(c.refactorizations);
  if (st != lp::SolveStatus::kOptimal) return;

  const lp::Certificate cert = engine.extract_certificate();
  const lp::SparseMatrix a = lp::SparseMatrix::from_problem_with_logicals(root_lp);
  lp::BasisLu lu;
  bool factored = false;
  {
    Stage s(tr, "lp.factor", root);
    factored = lu.factorize(a, cert.basis);
    out["lp.factor_ms"] += s.stop() * 1e3;
  }
  long long basis_nnz = 0;
  for (const int j : cert.basis) basis_nnz += a.col_nnz(j);
  out["lp.basis_nnz"] += static_cast<double>(basis_nnz);
  if (!factored) return;
  out["lp.factor_fill"] += static_cast<double>(lu.last_fill());

  // FTRAN the first nonbasic structural column; BTRAN the basic costs.
  const int m = root_lp.num_rows();
  const int n = root_lp.num_vars();
  std::vector<char> basic(static_cast<std::size_t>(n + 2 * m), 0);
  for (const int j : cert.basis) basic[static_cast<std::size_t>(j)] = 1;
  int entering = 0;
  while (entering < n && basic[static_cast<std::size_t>(entering)] != 0) ++entering;
  std::vector<double> col(static_cast<std::size_t>(m), 0.0);
  if (entering < n) a.scatter_col(entering, 1.0, col);
  std::vector<double> costs(static_cast<std::size_t>(m), 0.0);
  for (int r = 0; r < m; ++r) {
    const int j = cert.basis[static_cast<std::size_t>(r)];
    costs[static_cast<std::size_t>(r)] = j < n ? root_lp.obj(j) : 0.0;
  }
  {
    Stage s(tr, "lp.ftran", root);
    std::vector<double> work;
    out["lp.ftran_us"] += mean_us([&] {
      work = col;
      lu.ftran(work);
    });
  }
  {
    Stage s(tr, "lp.btran", root);
    std::vector<double> work;
    out["lp.btran_us"] += mean_us([&] {
      work = costs;
      lu.btran(work);
    });
  }

  // Dual re-solve after fixing the most fractional integer column down, the
  // way a branch-and-bound child starts.
  int branch = -1;
  double best_frac = 0.0;
  for (int j = 0; j < n; ++j) {
    if (!pm.reduced.is_integer(j)) continue;
    const double v = cert.x[static_cast<std::size_t>(j)];
    const double frac = std::abs(v - std::round(v));
    if (frac > best_frac + 1e-9) {
      best_frac = frac;
      branch = j;
    }
  }
  if (branch < 0) return;
  const long long pivots0 = engine.counters().pivots;
  const double v = cert.x[static_cast<std::size_t>(branch)];
  engine.set_bound(branch, engine.bound_lo(branch), std::floor(v));
  {
    Stage s(tr, "lp.resolve", root);
    (void)engine.dual_resolve();
    out["lp.resolve_ms"] += s.stop() * 1e3;
  }
  out["lp.resolve_pivots"] += static_cast<double>(engine.counters().pivots - pivots0);
}

}  // namespace pb
