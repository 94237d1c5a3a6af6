// perfbench: one command that runs a named workload of the certified
// deployment solver from a seed, checks every output, and prints every
// metric by name with its unit. The last stdout line is a JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--instances K] [--tamper none|audit|deployment]
//             [--trace-out FILE (required with --trace 1)]
//
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer metrics
// (spans, program counters, LP probes, self-time table, Chrome trace).
// Exit status: 0 when every check passed, 1 when any failed, 2 on bad usage.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/prng.hpp"
#include "deploy/serialize.hpp"
#include "perfbench.hpp"

namespace {

using pb::InstanceRun;
using pb::median;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int instances = 0;  ///< 0 = the whole pinned corpus
  pb::Tamper tamper = pb::Tamper::kNone;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                 [--instances K] [--tamper none|audit|deployment]\n"
               "                 [--trace-out FILE (required with --trace 1)]\nworkloads:");
  for (const std::string& n : pb::spec_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
        have_seed = true;
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
        have_seconds = true;
      } else if (k == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
        have_trace = true;
      } else if (k == "--instances") {
        a.instances = std::stoi(v);
      } else if (k == "--tamper") {
        if (v == "none") {
          a.tamper = pb::Tamper::kNone;
        } else if (v == "audit") {
          a.tamper = pb::Tamper::kAudit;
        } else if (v == "deployment") {
          a.tamper = pb::Tamper::kDeployment;
        } else {
          usage("unknown --tamper value " + v);
        }
      } else if (k == "--trace-out") {
        a.trace_out = v;
      } else {
        usage("unknown flag " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (a.instances < 0) usage("--instances must be >= 0");
  if (a.trace && a.trace_out.empty()) usage("--trace 1 needs --trace-out FILE");
  return a;
}

double now_s() { return static_cast<double>(nd::obs::now_ns()) * 1e-9; }

// --- Setup -------------------------------------------------------------------------

/// One set-up round runs at process start. During the passes of an untraced
/// run a further round follows an instance when the last round is at least
/// kRoundGapS old, so the samples span the whole run.
constexpr double kRoundGapS = 0.5;

/// Set-up figures of a run.
struct Setup {
  std::vector<pb::Instance> corpus;
  std::vector<std::uint64_t> seeds;  ///< corpus seeds, in visiting order
  std::vector<double> round_s;       ///< time per whole-corpus set-up, per round
  std::vector<double> gen_ms, load_ms;
};

/// One set-up round: generate every instance and load it back through the
/// JSON problem round-trip, `spec.setup_reps` times back to back. A single
/// set-up takes well under a millisecond on the small meshes, so the round is
/// timed as a whole and divided by the repetitions. Returns the last corpus.
std::vector<pb::Instance> set_up_round(const pb::Spec& spec, Setup& su) {
  std::vector<pb::Instance> corpus;
  double gen = 0.0, load = 0.0;
  const double t0 = now_s();
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    corpus.clear();
    for (const std::uint64_t seed : su.seeds) {
      const double g0 = now_s();
      const std::string text = nd::deploy::problem_to_json(*pb::generate(spec, seed)).dump();
      const double l0 = now_s();
      pb::Instance inst;
      inst.seed = seed;
      inst.problem = nd::deploy::problem_from_json(nd::json::parse(text));
      corpus.push_back(std::move(inst));
      gen += l0 - g0;
      load += now_s() - l0;
    }
  }
  const double reps = spec.setup_reps;
  su.round_s.push_back((now_s() - t0) / reps);
  su.gen_ms.push_back(gen * 1e3 / reps);
  su.load_ms.push_back(load * 1e3 / reps);
  return corpus;
}

// --- Passes ---------------------------------------------------------------------------

/// One pass over the corpus: one InstanceRun per instance, in corpus order.
struct Pass {
  std::vector<InstanceRun> runs;
  std::map<std::string, double> layer;  ///< per-layer contributions, summed
};

Pass run_pass(const pb::Spec& spec, const std::vector<pb::Instance>& corpus, pb::Tracer& tr,
              const pb::PassOptions& opt, const std::function<void()>& after_instance) {
  Pass pass;
  for (const pb::Instance& inst : corpus) {
    InstanceRun r = pb::run_instance(spec, inst, tr, opt);
    for (const auto& [k, v] : r.layer) pass.layer[k] += v;
    pass.runs.push_back(std::move(r));
    if (after_instance) after_instance();
  }
  return pass;
}

/// Repeat passes until the next one would not fit in `budget_s`; at least
/// `fewest` (a tampered run stops after one). `after_instance` runs after
/// each instance, inside the budget.
std::vector<Pass> run_passes(const pb::Spec& spec, const std::vector<pb::Instance>& corpus,
                             pb::Tracer& tr, const pb::PassOptions& opt, double budget_s,
                             int fewest, const std::function<void()>& after_instance = {}) {
  std::vector<Pass> passes;
  const double t0 = now_s();
  double last = 0.0;
  while (passes.empty() ||
         (opt.tamper == pb::Tamper::kNone &&
          (static_cast<int>(passes.size()) < fewest || now_s() - t0 + last <= budget_s))) {
    const double p0 = now_s();
    passes.push_back(run_pass(spec, corpus, tr, opt, after_instance));
    last = now_s() - p0;
  }
  return passes;
}

/// Fewest passes of a run: three on the multi-worker tree, whose figures are
/// medians over passes (now and then one of its passes takes many times the
/// usual time), one elsewhere.
int min_passes(const pb::Spec& spec) { return spec.threads > 1 ? 3 : 1; }

/// One instance's figure over passes. Every pass of a serial workload does the
/// same deterministic work, and contention on the host only ever adds time, so
/// the minimum is the steadiest estimate. The multi-worker tree differs from
/// pass to pass and has a heavy time tail: there the median.
double over_passes(const pb::Spec& spec, std::vector<double> v) {
  return spec.threads > 1 ? median(std::move(v)) : *std::min_element(v.begin(), v.end());
}

/// Σ over instances of the per-instance figure over passes.
template <typename Fn>
double sum_over_instances(const pb::Spec& spec, const std::vector<Pass>& passes, Fn&& fn) {
  double total = 0.0;
  for (std::size_t i = 0; i < passes.front().runs.size(); ++i) {
    std::vector<double> v;
    for (const Pass& p : passes) v.push_back(fn(p.runs[i]));
    total += over_passes(spec, std::move(v));
  }
  return total;
}

/// Median over passes of a per-pass total.
template <typename Fn>
double median_of(const std::vector<Pass>& passes, Fn&& fn) {
  std::vector<double> v;
  v.reserve(passes.size());
  for (const Pass& p : passes) v.push_back(fn(p));
  return median(v);
}

double solve_s(const pb::Spec& spec, const std::vector<Pass>& passes) {
  return sum_over_instances(spec, passes, [](const InstanceRun& r) { return r.solve_s; });
}

// --- Output ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_failures(const std::vector<Pass>& passes) {
  for (std::size_t i = 0; i < passes.size(); ++i) {
    for (const InstanceRun& r : passes[i].runs) {
      for (const std::string& f : r.failures) {
        std::printf("FAILED (pass %zu, seed %llu): %s\n", i + 1,
                    static_cast<unsigned long long>(r.seed), f.c_str());
      }
    }
  }
}

void print_instance_rows(const Pass& pass) {
  std::printf("%-6s %-10s %8s %10s %10s %7s %7s %8s %12s %s\n", "seed", "status", "nodes",
              "solve_s", "certify_s", "rows", "cols", "nnz", "be_j", "checks ok");
  for (const InstanceRun& r : pass.runs) {
    std::printf("%-6llu %-10s %8lld %10.4f %10.4f %7d %7d %8lld %12.6g %d/%d\n",
                static_cast<unsigned long long>(r.seed), r.status.c_str(),
                static_cast<long long>(r.nodes), r.solve_s, r.certify_s, r.rows, r.cols, r.nnz,
                r.has_be ? r.be : std::nan(""), r.attempted - r.failed, r.attempted);
  }
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string result_line(bool correct, long long attempted, long long failed,
                        const std::vector<Metric>& ms) {
  nd::json::Object metrics;
  for (const Metric& m : ms) {
    metrics.emplace_back(m.name, nd::json::Object{{"value", m.value}, {"unit", m.unit}});
  }
  nd::json::Object out{{"correct", correct},
                       {"attempted", static_cast<std::int64_t>(attempted)},
                       {"failed", static_cast<std::int64_t>(failed)},
                       {"metrics", std::move(metrics)}};
  return nd::json::Value(std::move(out)).dump();
}

// --- Self-time table ---------------------------------------------------------------------

struct SelfTimes {
  std::map<std::string, double> self_ms;  ///< summed over all instance spans
  double instance_ms = 0.0;
  double unattributed_ms = 0.0;
  std::int64_t max_residual_ns = 0;  ///< |Σ self + unattributed − span| worst instance
  int instances = 0;
};

/// The part of `span` that `kids` cover, in ns: their intervals are clipped to
/// the span and merged, so overlapping time counts once.
std::int64_t covered_ns(const pb::Tracer::Rec& span, std::vector<pb::Tracer::Rec> kids) {
  std::sort(kids.begin(), kids.end(),
            [](const auto& a, const auto& b) { return a.start_ns < b.start_ns; });
  std::int64_t covered = 0, reach = span.start_ns;
  for (const pb::Tracer::Rec& k : kids) {
    const std::int64_t from = std::max(k.start_ns, reach);
    const std::int64_t to = std::min(k.end_ns, span.end_ns);
    if (to > from) {
      covered += to - from;
      reach = to;
    }
  }
  return covered;
}

/// Self time of a span = its duration minus the part of it that its direct
/// children cover. The layer self times of an instance plus its unattributed
/// remainder (the instance span's own self time) add up to the span only when
/// every child lies inside its parent and no two siblings overlap; the
/// residual measures how far the recorded spans are from such a partition.
SelfTimes self_times(const std::vector<pb::Tracer::Rec>& recs) {
  SelfTimes out;
  const std::size_t n = recs.size();
  std::vector<std::vector<pb::Tracer::Rec>> kids(n);
  std::vector<int> root_of(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const int parent = recs[i].parent;
    if (parent < 0) continue;
    const auto p = static_cast<std::size_t>(parent);
    kids[p].push_back(recs[i]);
    root_of[i] = root_of[p] >= 0 ? root_of[p] : parent;
  }
  std::vector<std::int64_t> self_ns(n);
  for (std::size_t i = 0; i < n; ++i) {
    self_ns[i] = recs[i].end_ns - recs[i].start_ns - covered_ns(recs[i], kids[i]);
  }
  const auto is_instance = [&](std::size_t i) { return std::string(recs[i].name) == "instance"; };
  std::map<int, std::int64_t> attributed;  // instance span -> Σ descendant self times
  for (std::size_t i = 0; i < n; ++i) {
    const int root = root_of[i];
    if (root < 0 || !is_instance(static_cast<std::size_t>(root))) continue;
    out.self_ms[recs[i].name] += static_cast<double>(self_ns[i]) * 1e-6;
    attributed[root] += self_ns[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (recs[i].parent >= 0 || !is_instance(i)) continue;
    const std::int64_t span = recs[i].end_ns - recs[i].start_ns;
    out.instance_ms += static_cast<double>(span) * 1e-6;
    out.unattributed_ms += static_cast<double>(self_ns[i]) * 1e-6;
    ++out.instances;
    const std::int64_t residual = attributed[static_cast<int>(i)] + self_ns[i] - span;
    out.max_residual_ns = std::max(out.max_residual_ns, std::abs(residual));
  }
  return out;
}

void print_self_times(const SelfTimes& st, int passes) {
  std::printf("per-layer self time (mean per traced pass; %d instance spans):\n", st.instances);
  const double denom = passes > 0 ? passes : 1;
  for (const auto& [name, ms] : st.self_ms) {
    std::printf("  %-22s %12.3f ms %6.1f%%\n", name.c_str(), ms / denom,
                st.instance_ms > 0 ? 100.0 * ms / st.instance_ms : 0.0);
  }
  std::printf("  %-22s %12.3f ms %6.1f%%\n", "unattributed", st.unattributed_ms / denom,
              st.instance_ms > 0 ? 100.0 * st.unattributed_ms / st.instance_ms : 0.0);
  std::printf("  %-22s %12.3f ms (largest per-instance residual %lld ns)\n", "instance span",
              st.instance_ms / denom, static_cast<long long>(st.max_residual_ns));
}

/// Checks attempted / failed over the whole run.
struct Tally {
  long long attempted = 0;
  long long failed = 0;

  void add(const std::vector<Pass>& passes) {
    for (const Pass& p : passes) {
      for (const InstanceRun& r : p.runs) {
        attempted += r.attempted;
        failed += r.failed;
      }
    }
    print_failures(passes);
  }
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("FAILED: %s\n", what.c_str());
    }
  }
};

std::vector<Metric> end_to_end(const pb::Spec& spec, Setup& su, const pb::PassOptions& popt,
                               double seconds, Tally& tally) {
  pb::Tracer off(false);
  // Set-up rounds between instances, at most one per kRoundGapS, spread the
  // setup_s samples over the whole run: the host's speed drifts.
  double last_round = now_s();
  const auto maybe_set_up = [&] {
    if (now_s() - last_round < kRoundGapS) return;
    (void)set_up_round(spec, su);
    last_round = now_s();
  };
  const std::vector<Pass> passes =
      run_passes(spec, su.corpus, off, popt, seconds, min_passes(spec), maybe_set_up);
  tally.add(passes);
  print_instance_rows(passes.front());
  std::printf("%zu passes, %zu set-up rounds; nodes_per_s counts %s\n", passes.size(),
              su.round_s.size(),
              spec.milp ? "B&B nodes per second of B&B time"
                        : "annealing proposals per second of annealing time");

  double be_sum = 0.0;
  int be_count = 0;
  for (std::size_t i = 0; i < su.corpus.size(); ++i) {
    std::vector<double> v;
    for (const Pass& p : passes) {
      if (p.runs[i].has_be) v.push_back(p.runs[i].be);
    }
    if (!v.empty()) {
      be_sum += median(v);
      ++be_count;
    }
  }
  const auto sum = [&](auto&& fn) { return sum_over_instances(spec, passes, fn); };
  const double units = sum([](const InstanceRun& r) { return static_cast<double>(r.search_units); });
  const double search = sum([](const InstanceRun& r) { return r.search_s; });
  return {
      {"setup_s", median(su.round_s), "s"},
      {"solve_s", solve_s(spec, passes), "s"},
      {"solve_cpu_s", sum([](const InstanceRun& r) { return r.solve_cpu_s; }), "s"},
      {"nodes_per_s", search > 0 ? units / search : 0.0, "1/s"},
      {"certify_s", sum([](const InstanceRun& r) { return r.certify_s; }), "s"},
      {"be_j", be_count > 0 ? be_sum / be_count : 0.0, "J"},
      {"peak_rss_mb", pb::peak_rss_mb(), "MB"},
  };
}

/// Untraced passes first (half the budget), then traced passes and the
/// probes inside one obs session; the ratio of the two solve_s figures is
/// the measurement's own overhead.
std::vector<Metric> per_layer(const pb::Spec& spec, const Setup& su, const pb::PassOptions& popt,
                              double seconds, const std::string& trace_path, Tally& tally) {
  pb::Tracer off(false);
  const std::vector<Pass> plain =
      run_passes(spec, su.corpus, off, popt, seconds / 2, min_passes(spec));
  tally.add(plain);

  pb::Tracer tr(true);
  const bool own = nd::obs::start(/*with_trace=*/true);
  const std::map<std::string, long long> c0 = nd::obs::counter_totals();
  const std::vector<Pass> traced =
      run_passes(spec, su.corpus, tr, popt, seconds / 2, min_passes(spec));
  const std::map<std::string, long long> c1 = nd::obs::counter_totals();
  const std::map<std::string, nd::obs::HistStat> hists = nd::obs::hist_totals();
  tally.add(traced);
  const SelfTimes st = self_times(tr.records());
  std::map<std::string, double> probes;
  for (const pb::Instance& inst : su.corpus) pb::probe_instance(spec, inst, tr, probes);
  const nd::obs::Profile profile = own ? nd::obs::stop() : nd::obs::Profile{};

  print_instance_rows(traced.front());
  print_self_times(st, static_cast<int>(traced.size()));
  std::printf("%zu untraced + %zu traced passes\n", plain.size(), traced.size());
  tally.check(st.max_residual_ns == 0,
              "layer spans overlap or leave their instance span: self times do not sum to it");
  if (own) {
    std::ofstream f(trace_path);
    f << nd::obs::trace_to_json(profile).dump();
    tally.check(static_cast<bool>(f), "cannot write trace file " + trace_path);
    if (f) std::printf("Chrome trace written to %s\n", trace_path.c_str());
  }

  const double npass = static_cast<double>(traced.size());
  const auto find = [](const std::map<std::string, double>& m, const std::string& k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  const auto layer = [&](const std::string& k) {
    return median_of(traced, [&](const Pass& p) { return find(p.layer, k); });
  };
  const auto probe = [&](const std::string& k) { return find(probes, k); };
  // Model size, build and presolve figures come from the passes on the milp
  // workloads and from the probes at paper scale, where no pass builds a model.
  const auto model = [&](const std::string& k) { return spec.milp ? layer(k) : probe(k); };
  const auto per_pass = [&](const std::string& name) {
    const auto a = c1.find(name);
    const auto b = c0.find(name);
    return static_cast<double>((a == c1.end() ? 0 : a->second) -
                               (b == c0.end() ? 0 : b->second)) /
           npass;
  };
  const auto share = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const auto node_ms = [&](double pct) {
    const auto it = hists.find("bnb.node_ns");
    return it == hists.end() ? 0.0 : it->second.percentile(pct) * 1e-6;
  };
  const double cold = per_pass("bnb.cold_solves") + per_pass("bnb.par.cold_solves");
  const double warm = per_pass("bnb.warm_resolves") + per_pass("bnb.par.warm_resolves");
  const double busy = per_pass("bnb.par.busy_ns");
  const double idle = per_pass("bnb.par.idle_ns");
  const double plain_solve = solve_s(spec, plain);
  return {
      {"lp.root.solve_ms", probe("lp.root.solve_ms"), "ms"},
      {"lp.root.pivots", probe("lp.root.pivots"), "count"},
      {"lp.root.phase1_iters", probe("lp.root.phase1_iters"), "count"},
      {"lp.root.refactors", probe("lp.root.refactors"), "count"},
      {"lp.factor_ms", probe("lp.factor_ms"), "ms"},
      {"lp.factor_fill", probe("lp.factor_fill"), "count"},
      {"lp.basis_nnz", probe("lp.basis_nnz"), "count"},
      {"lp.ftran_us", probe("lp.ftran_us"), "us"},
      {"lp.btran_us", probe("lp.btran_us"), "us"},
      {"lp.resolve_ms", probe("lp.resolve_ms"), "ms"},
      {"lp.resolve_pivots", probe("lp.resolve_pivots"), "count"},
      {"lp.refactor.count", per_pass("lp.refactor.count"), "count"},
      {"lp.refactor.fill", per_pass("lp.refactor.fill"), "count"},
      {"lp.ftran.count", per_pass("lp.ftran.count"), "count"},
      {"lp.btran.count", per_pass("lp.btran.count"), "count"},
      {"lp.eta.updates", per_pass("lp.eta.updates"), "count"},
      {"lp.bland_activations", per_pass("lp.bland_activations"), "count"},
      {"milp.solve_ms", layer("milp.solve_ms"), "ms"},
      {"milp.nodes", layer("milp.nodes"), "count"},
      {"milp.lp_iters", layer("milp.lp_iters"), "count"},
      {"milp.node_ms.p50", node_ms(50), "ms"},
      {"milp.node_ms.p99", node_ms(99), "ms"},
      {"milp.cold_solves", cold, "count"},
      {"milp.warm_resolves", warm, "count"},
      {"milp.cold_share", share(cold, cold + warm), "ratio"},
      {"milp.pruned_infeasible", per_pass("bnb.pruned_infeasible"), "count"},
      {"milp.best_bound", share(layer("milp.best_bound"), static_cast<double>(su.corpus.size())),
       "J"},
      {"milp.par.busy_share", share(busy, busy + idle), "ratio"},
      {"milp.par.donations", per_pass("bnb.par.donations"), "count"},
      {"milp.par.cold_solves", per_pass("bnb.par.cold_solves"), "count"},
      {"model.build_ms", model("model.build_ms"), "ms"},
      {"model.rows", model("model.rows"), "count"},
      {"model.cols", model("model.cols"), "count"},
      {"model.nnz", model("model.nnz"), "count"},
      {"model.complete_calls", layer("model.complete_calls"), "count"},
      {"model.complete_hits", layer("model.complete_hits"), "count"},
      {"model.complete_ms", layer("model.complete_ms"), "ms"},
      {"presolve.instance_ms", model("presolve.instance_ms"), "ms"},
      {"presolve.fixings", model("presolve.fixings"), "count"},
      {"presolve.model_ms", probe("presolve.model_ms"), "ms"},
      {"presolve.rows_removed", model("presolve.rows_removed"), "count"},
      {"presolve.cols_removed", model("presolve.cols_removed"), "count"},
      {"heuristic.solve_ms", layer("heuristic.solve_ms"), "ms"},
      {"heuristic.feasible_share", share(layer("heuristic.feasible"), layer("heuristic.runs")),
       "ratio"},
      {"anneal.solve_ms", layer("anneal.solve_ms"), "ms"},
      {"anneal.accept_share", share(layer("anneal.accepted"), layer("anneal.proposed")),
       "ratio"},
      {"certify.bnb_ms", layer("certify.bnb_ms"), "ms"},
      {"certify.exact_ms", layer("certify.exact_ms"), "ms"},
      {"certify.exact_bounds", layer("certify.exact_bounds"), "count"},
      {"certify.exact_unfinished", layer("certify.exact_unfinished"), "count"},
      {"certify.lp_ms", layer("certify.lp_ms"), "ms"},
      {"verify.exact_ms", layer("verify.exact_ms"), "ms"},
      {"sim.run_us", layer("sim.run_us"), "us"},
      {"sim.fault_ms", layer("sim.fault_ms"), "ms"},
      {"deploy.gen_ms", median(su.gen_ms), "ms"},
      {"deploy.load_ms", median(su.load_ms), "ms"},
      {"obs.overhead_pct", plain_solve > 0 ? 100.0 * (solve_s(spec, traced) / plain_solve - 1.0) : 0.0,
       "%"},
      {"unattributed_ms", st.unattributed_ms / npass, "ms"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const pb::Spec* spec = pb::find_spec(args.workload);
  if (spec == nullptr) usage("unknown workload " + args.workload);

  // Pinned corpus, visited in an order drawn from the seed.
  std::vector<std::uint64_t> seeds = spec->corpus;
  nd::Prng order(args.seed);
  for (std::size_t i = seeds.size(); i > 1; --i) {
    std::swap(seeds[i - 1], seeds[static_cast<std::size_t>(order() % i)]);
  }
  if (args.instances > 0 && static_cast<std::size_t>(args.instances) < seeds.size()) {
    seeds.resize(static_cast<std::size_t>(args.instances));
  }

  Setup su;
  su.seeds = seeds;
  su.corpus = set_up_round(*spec, su);

  Tally tally;
  if (spec->threads > 1) {
    for (pb::Instance& inst : su.corpus) {
      inst.reference_obj = pb::serial_reference(inst);
      tally.check(!std::isnan(inst.reference_obj),
                  "1-worker reference solve of seed " + std::to_string(inst.seed) +
                      " did not prove optimal");
    }
  }

  pb::PassOptions popt;
  popt.tamper = args.tamper;
  popt.run_seed = args.seed;
  std::printf("perfbench %s: seed %llu, %zu instances (%d tasks, %dx%d mesh, %d levels, "
              "alpha %.2f), %s\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed), su.corpus.size(),
              spec->tasks, spec->rows, spec->cols, spec->levels, spec->alpha,
              args.trace ? "traced" : "untraced");

  const std::vector<Metric> metrics =
      args.trace ? per_layer(*spec, su, popt, args.seconds, args.trace_out, tally)
                 : end_to_end(*spec, su, popt, args.seconds, tally);

  const double fail_rate = tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                                     static_cast<double>(tally.attempted)
                                               : 1.0;
  print_metrics(args.trace ? "per-layer metrics:" : "end-to-end metrics:", metrics);
  std::printf("  %-28s %16.6f ratio (%lld of %lld checks failed)\n", "fail_rate", fail_rate,
              tally.failed, tally.attempted);
  std::printf("%s\n",
              result_line(tally.failed == 0, tally.attempted, tally.failed, metrics).c_str());
  return tally.failed == 0 ? 0 : 1;
}
