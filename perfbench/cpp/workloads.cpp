// Pinned workload specs, instance generation, and the per-instance pipeline:
// solve through the library's public entry points, then check every output.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <utility>

#include "analysis/certify_bnb.hpp"
#include "analysis/certify_lp.hpp"
#include "analysis/exact/certify_bnb_exact.hpp"
#include "analysis/exact/verify_deployment.hpp"
#include "analysis/presolve/instance_presolve.hpp"
#include "common/prng.hpp"
#include "deploy/evaluate.hpp"
#include "heuristic/annealing.hpp"
#include "heuristic/phases.hpp"
#include "lp/presolve.hpp"
#include "milp/audit.hpp"
#include "model/formulation.hpp"
#include "perfbench.hpp"
#include "sim/event_sim.hpp"
#include "sim/fault_injection.hpp"
#include "task/generator.hpp"

namespace pb {

using namespace nd;  // NOLINT(google-build-using-namespace)

// --- Workloads -----------------------------------------------------------------

namespace {

std::vector<Spec> make_specs() {
  std::vector<Spec> specs;

  // 3 tasks, uniform 2x2 mesh, 3 V/F levels: proved optimal, then the audit is
  // replayed in float and re-proved in exact arithmetic.
  Spec prove;
  prove.name = "prove-2x2";
  prove.tasks = 3;
  prove.rows = prove.cols = 2;
  prove.levels = 3;
  prove.alpha = 0.8;
  prove.mesh_variation = 0.0;
  prove.corpus = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  prove.exact_certify = true;
  prove.setup_reps = 30;
  specs.push_back(prove);

  // The same corpus on the work-sharing 2-worker tree search; the proved
  // objective must equal the 1-worker one.
  Spec par = prove;
  par.name = "prove-2x2-par";
  par.threads = 2;
  par.exact_certify = false;
  specs.push_back(par);

  // 6 tasks, heterogeneous 3x3 mesh, 4 levels: LPs of ~4k rows; serial B&B
  // capped by a node budget (never by time). No seed has a heuristic warm
  // start. Within 25 nodes seed 12 finds an incumbent (the B&B completion),
  // and seed 7 runs into one node whose re-solve costs seconds.
  Spec budget;
  budget.name = "budget-3x3";
  budget.tasks = 6;
  budget.rows = budget.cols = 3;
  budget.levels = 4;
  budget.alpha = 0.8;
  budget.mesh_variation = 0.35;
  budget.corpus = {7, 12};
  budget.require_proof = false;
  budget.node_limit = 24;
  budget.certify_root_lp = true;
  budget.setup_reps = 50;
  specs.push_back(budget);

  // Paper scale: 20 tasks, 4x4 mesh, 6 levels, alpha 2.5; heuristic plus
  // annealing refinement, no LP solve.
  Spec paper;
  paper.name = "paper-4x4";
  paper.tasks = 20;
  paper.rows = paper.cols = 4;
  paper.levels = 6;
  paper.alpha = 2.5;
  paper.mesh_variation = 0.35;
  paper.corpus = {1500, 1501, 1502, 1503, 1504, 1505, 1506, 1507};
  paper.milp = false;
  paper.require_proof = false;
  paper.anneal_iterations = 30000;
  paper.fault_trials = 2000;
  paper.setup_reps = 3;
  specs.push_back(paper);
  return specs;
}

const std::vector<Spec>& specs() {
  static const std::vector<Spec> all = make_specs();
  return all;
}

}  // namespace

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> spec_names() {
  std::vector<std::string> names;
  for (const Spec& s : specs()) names.push_back(s.name);
  return names;
}

std::unique_ptr<deploy::DeploymentProblem> generate(const Spec& spec, std::uint64_t seed) {
  Prng prng(seed);
  task::GenParams gen;
  gen.num_tasks = spec.tasks;
  gen.width = std::max(2, spec.tasks / 5);
  task::TaskGraph graph = task::generate_layered(prng, gen);

  noc::MeshParams mesh;
  mesh.rows = spec.rows;
  mesh.cols = spec.cols;
  mesh.seed = seed + 7777;
  mesh.variation = spec.mesh_variation;

  dvfs::VfTable vf = spec.levels == 6 ? dvfs::VfTable::typical6()
                                      : dvfs::VfTable::with_spread(spec.levels, 1.0);
  auto p = std::make_unique<deploy::DeploymentProblem>(
      std::move(graph), mesh, std::move(vf),
      reliability::FaultParams{/*lambda0=*/2e-5, /*d=*/3.0}, /*r_th=*/0.995, /*horizon=*/1.0);
  p->set_horizon(p->horizon_for_alpha(spec.alpha));
  return p;
}

// --- Spans -----------------------------------------------------------------------

int Tracer::open(const char* name, int parent, std::int64_t start_ns) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mu_);
  recs_.push_back(Rec{name, parent, start_ns, start_ns});
  return static_cast<int>(recs_.size()) - 1;
}

void Tracer::close(int id, std::int64_t end_ns) {
  if (!enabled_ || id < 0) return;
  const std::lock_guard<std::mutex> lock(mu_);
  recs_[static_cast<std::size_t>(id)].end_ns = end_ns;
}

std::vector<Tracer::Rec> Tracer::records() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return recs_;
}

Stage::Stage(Tracer& tr, const char* name, int parent)
    : tr_(tr), span_(name, tr.enabled()), start_ns_(obs::now_ns()) {
  id_ = tr_.open(name, parent, start_ns_);
}

Stage::~Stage() { stop(); }

double Stage::stop() {
  if (seconds_ < 0.0) {
    const std::int64_t end = obs::now_ns();
    tr_.close(id_, end);
    seconds_ = static_cast<double>(end - start_ns_) * 1e-9;
  }
  return seconds_;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

long long model_nnz(const model::Formulation& f) {
  long long nnz = 0;
  for (int i = 0; i < f.model().num_rows(); ++i) {
    nnz += static_cast<long long>(f.model().lp().row(i).coef.size());
  }
  return nnz;
}

double peak_rss_mb() {
  // VmHWM is the high-water mark of this process image. getrusage's
  // ru_maxrss would also carry the parent's footprint across fork + exec.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    long long kb = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb > 0) return static_cast<double>(kb) * 1024.0 / 1e6;
  }
  return static_cast<double>(obs::peak_rss_bytes()) / 1e6;
}

// --- Pipeline ----------------------------------------------------------------------

void InstanceRun::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

namespace {

/// What every pipeline stage of one instance needs.
struct Ctx {
  const Spec& spec;
  const Instance& inst;
  Tracer& tr;
  int root;  ///< the instance span, parent of every layer span
  const PassOptions& opt;
  InstanceRun& r;
  double wall0 = static_cast<double>(obs::now_ns()) * 1e-9;
  double cpu0 = cpu_seconds();

  /// End of the solve phase: loaded problem -> returned deployment/status.
  void solved() const {
    r.solve_s = static_cast<double>(obs::now_ns()) * 1e-9 - wall0;
    r.solve_cpu_s = cpu_seconds() - cpu0;
  }
};

bool rel_equal(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(1.0, std::max(std::abs(a), std::abs(b)));
}

std::string first_error(const analysis::Report& rep) {
  for (const analysis::Diagnostic& d : rep.diagnostics()) {
    if (d.severity == analysis::Severity::kError) return d.code + " " + d.subject;
  }
  return "";
}

/// Corrupt one node bound so the audit no longer proves the claimed outcome:
/// the first solved child claims a bound below its parent's.
void tamper_audit(milp::AuditLog& audit) {
  for (milp::AuditNode& n : audit.nodes) {
    if (n.parent >= 0 && n.lp_solved) {
      n.bound = audit.nodes[static_cast<std::size_t>(n.parent)].bound - 1.0;
      return;
    }
  }
  audit.obj -= 1.0;
}

/// Corrupt a deployment: claim zero execution time for every task and move
/// task 0 to the next V/F level.
void tamper_deployment(const deploy::DeploymentProblem& p, deploy::DeploymentSolution& s) {
  for (std::size_t i = 0; i < s.end.size(); ++i) s.end[i] = s.start[i];
  if (!s.level.empty() && s.level[0] >= 0) s.level[0] = (s.level[0] + 1) % p.num_levels();
}

/// Deployment-level checks shared by every workload: the returned objective
/// matches the evaluator, the exact static verifier accepts, the event
/// simulation shows no anomaly, and (when configured) a fault campaign agrees
/// with the predicted reliability.
void check_deployment(const Ctx& c, const deploy::DeploymentSolution& sol, double claimed_be) {
  const deploy::DeploymentProblem& p = *c.inst.problem;
  InstanceRun& r = c.r;
  r.has_be = true;
  r.be = claimed_be;
  r.check(rel_equal(deploy::evaluate_energy(p, sol).max_proc(), claimed_be, 1e-6),
          "returned objective differs from the evaluated BE energy");
  {
    Stage s(c.tr, "verify.exact", c.root);
    analysis::VerifyDeploymentOptions vopt;
    vopt.claimed_be = claimed_be;
    const analysis::VerifyDeploymentOutcome vd = analysis::verify_deployment(p, sol, vopt);
    r.layer["verify.exact_ms"] += s.stop() * 1e3;
    r.check(vd.accepted(), "verify_deployment: " + first_error(vd.report));
  }
  {
    Stage s(c.tr, "sim.run", c.root);
    const sim::SimResult sr = sim::simulate(p, sol);
    r.layer["sim.run_us"] += s.stop() * 1e6;
    r.check(sr.ok(), "simulation: " + (sr.anomalies.empty() ? std::string("not ok")
                                                            : sr.anomalies.front()));
  }
  if (c.spec.fault_trials > 0) {
    Stage s(c.tr, "sim.fault", c.root);
    const sim::FaultCampaignResult fc = sim::run_fault_injection(
        p, sol, c.spec.fault_trials, c.opt.run_seed * 1000003ULL + c.inst.seed);
    r.layer["sim.fault_ms"] += s.stop() * 1e3;
    // Six standard errors (twice the campaign's own 3-sigma half-width) plus
    // one trial of slack: a correct reliability model never trips this.
    const double slack = 2.0 * fc.conf3sigma + 1.0 / c.spec.fault_trials;
    r.check(fc.trials == c.spec.fault_trials && std::abs(fc.observed - fc.predicted) <= slack,
            "fault injection disagrees with the predicted reliability");
  }
}

/// Time the certification phase into c.r.certify_s. On untraced, untampered
/// runs a phase shorter than 50 ms is repeated (at most 25 times) on the same
/// outputs and the fastest repetition kept: one sample of a few milliseconds
/// says little on a shared host, and contention only ever adds time. Only the
/// first repetition's checks and layer figures count.
template <typename Fn>
void time_certify(const Ctx& c, Fn&& certify) {
  InstanceRun repeats;  // absorbs the checks of the repetitions
  std::vector<double> times;
  double total = 0.0;
  do {
    const Ctx cc{c.spec, c.inst, c.tr, c.root, c.opt, times.empty() ? c.r : repeats};
    const std::int64_t t0 = obs::now_ns();
    certify(cc);
    times.push_back(static_cast<double>(obs::now_ns() - t0) * 1e-9);
    total += times.back();
  } while (!c.tr.enabled() && c.opt.tamper == Tamper::kNone && total < 0.05 &&
           times.size() < 25);
  c.r.certify_s = *std::min_element(times.begin(), times.end());
}

/// prove-* and budget-3x3: formulation, instance presolve, audited B&B, then
/// audit replay (float, and exact where configured), root certificate,
/// deployment checks.
void run_milp(const Ctx& c, const heuristic::HeuristicResult& h) {
  const Spec& spec = c.spec;
  InstanceRun& r = c.r;
  std::unique_ptr<model::Formulation> f;
  {
    Stage s(c.tr, "model.build", c.root);
    f = std::make_unique<model::Formulation>(*c.inst.problem);
    r.layer["model.build_ms"] += s.stop() * 1e3;
  }
  r.rows = f->model().num_rows();
  r.cols = f->model().num_vars();
  r.nnz = model_nnz(*f);
  r.layer["model.rows"] += r.rows;
  r.layer["model.cols"] += r.cols;
  r.layer["model.nnz"] += static_cast<double>(r.nnz);

  std::vector<double> warm;
  if (h.feasible) warm = f->encode(h.solution);
  analysis::InstancePresolveResult ipre;
  {
    Stage s(c.tr, "presolve.instance", c.root);
    analysis::InstancePresolveOptions iopt;
    if (h.feasible) iopt.warm = &warm;
    ipre = analysis::instance_reductions(*f, iopt);
    r.layer["presolve.instance_ms"] += s.stop() * 1e3;
  }
  r.layer["presolve.fixings"] +=
      ipre.dominance_fixings + ipre.twin_fixings + ipre.orbit_fixings;

  milp::AuditLog audit;
  milp::MipOptions mopt;
  mopt.time_limit_s = kTimeLimitS;
  mopt.node_limit = spec.node_limit;
  mopt.num_threads = spec.threads;
  mopt.instance_reductions = &ipre.log;
  if (h.feasible) mopt.warm_start = &warm;
  mopt.audit = &audit;

  // The completion callback is wrapped only on traced runs: calls, hits and
  // time. On one worker its time is a child span of milp.solve; with more
  // workers the calls overlap, so only the summed time is kept.
  std::atomic<long long> calls{0}, hits{0}, complete_ns{0};
  const model::Formulation* fp = f.get();
  int milp_id = -1;
  if (c.tr.enabled()) {
    Tracer& tr = c.tr;
    const bool serial = spec.threads == 1;
    mopt.completion = [&, fp, serial](const std::vector<double>& lp_point,
                                      std::vector<double>* out) {
      const std::int64_t t0 = obs::now_ns();
      const int id = serial ? tr.open("model.complete", milp_id, t0) : -1;
      const bool ok = fp->complete(lp_point, out);
      const std::int64_t t1 = obs::now_ns();
      tr.close(id, t1);
      calls.fetch_add(1, std::memory_order_relaxed);
      if (ok) hits.fetch_add(1, std::memory_order_relaxed);
      complete_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
      return ok;
    };
  } else {
    mopt.completion = [fp](const std::vector<double>& lp_point, std::vector<double>* out) {
      return fp->complete(lp_point, out);
    };
  }

  milp::MipResult mip;
  {
    Stage s(c.tr, "milp.solve", c.root);
    milp_id = s.id();
    mip = milp::solve(f->model(), mopt);
    r.search_s = s.stop();
    r.layer["milp.solve_ms"] += r.search_s * 1e3;
  }
  deploy::DeploymentSolution sol;
  if (mip.has_solution()) sol = f->decode(mip.x);
  c.solved();
  r.status = milp::to_string(mip.status);
  r.nodes = mip.nodes;
  r.search_units = mip.nodes;
  r.layer["milp.nodes"] += static_cast<double>(mip.nodes);
  r.layer["milp.lp_iters"] += mip.lp_iterations;
  r.layer["milp.best_bound"] += mip.best_bound;
  r.layer["model.complete_calls"] += static_cast<double>(calls.load());
  r.layer["model.complete_hits"] += static_cast<double>(hits.load());
  r.layer["model.complete_ms"] += static_cast<double>(complete_ns.load()) * 1e-6;
  r.layer["presolve.rows_removed"] += mip.presolve_stats.rows_removed;
  r.layer["presolve.cols_removed"] += mip.presolve_stats.cols_removed;

  // Caps that must never bind: the wall-clock limit anywhere, and any limit
  // at all where a proof is required.
  const bool proved =
      mip.status == milp::MipStatus::kOptimal || mip.status == milp::MipStatus::kInfeasible;
  r.check(mip.seconds < kTimeLimitS && (proved || mip.nodes > spec.node_limit),
          "B&B stopped on the time limit");
  if (spec.require_proof) {
    r.check(mip.status == milp::MipStatus::kOptimal,
            std::string("B&B ended '") + r.status + "' without a proof");
  }
  if (spec.threads > 1 && mip.status == milp::MipStatus::kOptimal) {
    r.check(rel_equal(mip.obj, c.inst.reference_obj, 1e-6),
            "2-worker optimum differs from the 1-worker optimum");
  }

  if (c.opt.tamper == Tamper::kAudit) tamper_audit(audit);
  if (mip.has_solution() && c.opt.tamper == Tamper::kDeployment) {
    tamper_deployment(*c.inst.problem, sol);
  }
  time_certify(c, [&](const Ctx& cc) {
    InstanceRun& out = cc.r;
    {
      Stage s(cc.tr, "certify.bnb", cc.root);
      analysis::CertifyBnbOptions copt;
      copt.formulation = f.get();
      const analysis::Report rep = analysis::certify_bnb(f->model(), audit, copt);
      out.layer["certify.bnb_ms"] += s.stop() * 1e3;
      out.check(rep.num_errors() == 0, "certify_bnb: " + first_error(rep));
    }
    if (spec.exact_certify) {
      Stage s(cc.tr, "certify.exact", cc.root);
      analysis::CertifyBnbExactOptions eopt;
      eopt.formulation = f.get();
      const analysis::ExactBnbOutcome ex =
          analysis::certify_bnb_exact(f->model(), audit, eopt);
      out.layer["certify.exact_ms"] += s.stop() * 1e3;
      out.layer["certify.exact_bounds"] += ex.bounds_reproved;
      out.layer["certify.exact_unfinished"] += ex.resolves_failed;
      out.check(ex.accepted(), "certify_bnb_exact: " + first_error(ex.report));
      out.check(ex.resolves_failed == 0, "certify_bnb_exact: node LP re-solve hit its time cap");
    }
    if (spec.certify_root_lp) {
      Stage s(cc.tr, "certify.lp", cc.root);
      // A presolved audit's root certificate lives in the reduced space.
      const analysis::Report rep =
          audit.presolved
              ? analysis::certify_lp(
                    lp::apply_reductions(f->model().lp(), audit.reductions).reduced,
                    audit.root_cert)
              : analysis::certify_lp(f->model().lp(), audit.root_cert);
      out.layer["certify.lp_ms"] += s.stop() * 1e3;
      out.check(rep.num_errors() == 0, "certify_lp (root): " + first_error(rep));
    }
    if (mip.has_solution()) check_deployment(cc, sol, mip.obj);
  });
}

/// paper-4x4: annealing refinement of the heuristic; the feasible deployment
/// with the lower BE energy is returned, then checked.
void run_refine(const Ctx& c, const heuristic::HeuristicResult& h) {
  const deploy::DeploymentProblem& p = *c.inst.problem;
  InstanceRun& r = c.r;
  heuristic::AnnealResult ann;
  {
    Stage s(c.tr, "heuristic.anneal", c.root);
    heuristic::AnnealOptions aopt;
    aopt.iterations = c.spec.anneal_iterations;
    // Pinned to the instance, like every other solver input: the work of a
    // pass does not depend on --seed.
    aopt.seed = c.inst.seed;
    ann = heuristic::solve_annealing(p, aopt);
    r.search_s = s.stop();
    r.layer["anneal.solve_ms"] += r.search_s * 1e3;
  }
  r.search_units = c.spec.anneal_iterations;
  r.layer["anneal.accepted"] += ann.accepted_moves;
  r.layer["anneal.proposed"] += c.spec.anneal_iterations;

  r.status = "infeasible";
  double claimed = 0.0;
  deploy::DeploymentSolution sol;
  if (h.feasible) {
    r.status = "heuristic";
    sol = h.solution;
    claimed = deploy::evaluate_energy(p, h.solution).max_proc();
  }
  if (ann.feasible && (!h.feasible || ann.objective < claimed)) {
    r.status = "anneal";
    sol = ann.solution;
    claimed = ann.objective;
  }
  c.solved();
  const bool feasible = h.feasible || ann.feasible;
  r.check(feasible, "no feasible paper-scale deployment");
  if (!feasible) return;
  if (c.opt.tamper == Tamper::kDeployment) tamper_deployment(p, sol);

  time_certify(c, [&](const Ctx& cc) { check_deployment(cc, sol, claimed); });
}

}  // namespace

InstanceRun run_instance(const Spec& spec, const Instance& inst, Tracer& tr,
                         const PassOptions& opt) {
  InstanceRun r;
  r.seed = inst.seed;
  Stage instance(tr, "instance", -1);
  const Ctx c{spec, inst, tr, instance.id(), opt, r};

  heuristic::HeuristicResult h;
  {
    Stage s(tr, "heuristic.solve", c.root);
    h = heuristic::solve_heuristic(*inst.problem);
    r.layer["heuristic.solve_ms"] += s.stop() * 1e3;
  }
  r.layer["heuristic.feasible"] += h.feasible ? 1.0 : 0.0;
  r.layer["heuristic.runs"] += 1.0;

  if (spec.milp) {
    run_milp(c, h);
  } else {
    run_refine(c, h);
  }
  return r;
}

double serial_reference(const Instance& inst) {
  const deploy::DeploymentProblem& p = *inst.problem;
  heuristic::HeuristicOptions hopt;
  hopt.telemetry = false;
  const heuristic::HeuristicResult h = heuristic::solve_heuristic(p, hopt);
  const model::Formulation f(p);
  std::vector<double> warm;
  if (h.feasible) warm = f.encode(h.solution);
  analysis::InstancePresolveOptions iopt;
  if (h.feasible) iopt.warm = &warm;
  const analysis::InstancePresolveResult ipre = analysis::instance_reductions(f, iopt);
  milp::MipOptions mopt;
  mopt.time_limit_s = kTimeLimitS;
  mopt.num_threads = 1;
  mopt.instance_reductions = &ipre.log;
  if (h.feasible) mopt.warm_start = &warm;
  mopt.completion = [&f](const std::vector<double>& lp_point, std::vector<double>* out) {
    return f.complete(lp_point, out);
  };
  mopt.telemetry = false;
  const milp::MipResult mip = milp::solve(f.model(), mopt);
  if (mip.status != milp::MipStatus::kOptimal) return std::nan("");
  return mip.obj;
}

}  // namespace pb
