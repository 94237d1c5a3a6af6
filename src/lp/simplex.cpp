// One-shot LP entry points (solve_lp / solve_lp_certified) with their
// certificate-safe presolve, the telemetry export and the status strings.
// The engine and the Simplex facade's forwarders live in simplex_revised.cpp.
#include "lp/simplex.hpp"

#include "lp/certificate.hpp"
#include "lp/presolve.hpp"
#include "obs/obs.hpp"

namespace nd::lp {

const char* to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterLimit: return "iteration-limit";
  }
  return "?";
}

LpResult solve_lp(const Problem& p, Simplex::Options opt) {
  if (opt.presolve) {
    const ReductionLog log = presolve_lp_safe(p);
    if (!log.reductions.empty()) {
      PresolvedLp map = apply_reductions(p, log);
      if (map.infeasible) {
        LpResult res;
        res.status = SolveStatus::kInfeasible;
        return res;
      }
      if (map.reduced.num_vars() == 0) {
        // Every column pinned: the point is fully determined by the log.
        bool feasible = true;
        (void)trivial_certificate(map.reduced, &feasible);
        LpResult res;
        res.status = feasible ? SolveStatus::kOptimal : SolveStatus::kInfeasible;
        if (feasible) {
          res.obj = map.obj_shift;
          res.x = lift_point(map, {});
        }
        return res;
      }
      Simplex::Options inner = opt;
      inner.presolve = false;
      LpResult res = solve_lp(map.reduced, inner);
      if (res.status == SolveStatus::kOptimal) {
        res.obj += map.obj_shift;
        res.x = lift_point(map, res.x);
      } else {
        res.x.clear();
      }
      return res;
    }
  }
  Simplex engine(p, opt);
  LpResult res;
  res.status = engine.solve();
  res.iterations = engine.iterations();
  if (res.status == SolveStatus::kOptimal) {
    res.obj = engine.objective();
    res.x = engine.solution();
  }
  emit_lp_counters(engine);
  return res;
}

void emit_lp_counters(const Simplex& engine) {
#if ND_OBS_ENABLED
  if (!obs::collecting()) return;
  const Simplex::Counters& c = engine.counters();
  ND_OBS_COUNT("lp.solves", c.solves);
  ND_OBS_COUNT("lp.dual_resolves", c.dual_resolves);
  ND_OBS_COUNT("lp.iterations", engine.iterations());
  ND_OBS_COUNT("lp.pivots", c.pivots);
  ND_OBS_COUNT("lp.bound_flips", c.bound_flips);
  ND_OBS_COUNT("lp.bland_activations", c.bland_activations);
  ND_OBS_COUNT("lp.refactor.count", c.refactorizations);
  ND_OBS_COUNT("lp.refactor.fill", c.refactor_fill);
  ND_OBS_COUNT("lp.ftran.count", c.ftrans);
  ND_OBS_COUNT("lp.btran.count", c.btrans);
  ND_OBS_COUNT("lp.eta.updates", c.eta_updates);
  ND_OBS_COUNT("lp.phase1_iterations", c.phase1_iters);
  ND_OBS_COUNT("lp.phase2_iterations", c.phase2_iters);
  // Cumulative engine allocation: memory as a first-class metric next to the
  // time counters (docs/observability.md, "Memory").
  ND_OBS_COUNT("mem.lp.engine_bytes", engine.bytes());
  ND_OBS_HIST("lp.iters_per_solve", engine.iterations());
#else
  (void)engine;
#endif
}

CertifiedLpResult solve_lp_certified(const Problem& p, Simplex::Options opt) {
  if (opt.presolve) {
    const ReductionLog log = presolve_lp_safe(p);
    if (!log.reductions.empty()) {
      PresolvedLp map = apply_reductions(p, log);
      if (map.infeasible) {
        // A contradiction among pinned columns (e.g. an equality row whose
        // variables are all fixed to an unsatisfiable residual). There is no
        // Farkas ray to lift; callers see kInfeasible with an empty ray.
        CertifiedLpResult out;
        out.result.status = SolveStatus::kInfeasible;
        out.cert.status = SolveStatus::kInfeasible;
        return out;
      }
      if (map.reduced.num_vars() == 0) {
        bool feasible = true;
        const Certificate reduced_cert = trivial_certificate(map.reduced, &feasible);
        CertifiedLpResult out;
        out.result.status = feasible ? SolveStatus::kOptimal : SolveStatus::kInfeasible;
        if (feasible) {
          out.result.obj = map.obj_shift;
          out.result.x = lift_point(map, {});
        }
        out.cert = lift_certificate(map, p, reduced_cert);
        return out;
      }
      Simplex::Options inner = opt;
      inner.presolve = false;
      CertifiedLpResult out = solve_lp_certified(map.reduced, inner);
      if (out.result.status == SolveStatus::kOptimal) {
        out.result.obj += map.obj_shift;
        out.result.x = lift_point(map, out.result.x);
      } else {
        out.result.x.clear();
      }
      out.cert = lift_certificate(map, p, out.cert);
      return out;
    }
  }
  Simplex engine(p, opt);
  CertifiedLpResult out;
  out.result.status = engine.solve();
  out.result.iterations = engine.iterations();
  if (out.result.status == SolveStatus::kOptimal) {
    out.result.obj = engine.objective();
    out.result.x = engine.solution();
  }
  out.cert = engine.extract_certificate();
  emit_lp_counters(engine);
  return out;
}

}  // namespace nd::lp
