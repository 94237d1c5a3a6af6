// The one-shot cold solve (solve_lp), the telemetry export and the status
// strings. The engine and the Simplex facade's forwarders live in
// simplex_revised.cpp.
#include "lp/simplex.hpp"

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

}  // namespace nd::lp
