// Shared declarations of the perfbench binary: the pinned workload specs,
// the benchmark-owned span recorder, and the per-instance pipeline records.
//
// The benchmark only calls the library's public entry points and times each
// layer from the outside, around those calls; it adds no timer to src/.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "deploy/problem.hpp"
#include "model/formulation.hpp"
#include "obs/obs.hpp"

namespace pb {

// --- Workloads ---------------------------------------------------------------

/// One benchmark workload: instance shape, pinned corpus and pipeline knobs.
/// Every value lives here, in the benchmark, so library-side retuning of the
/// figure benches cannot move the yardstick.
struct Spec {
  std::string name;
  int tasks = 3;
  int rows = 2, cols = 2;
  int levels = 3;
  double alpha = 0.8;
  double mesh_variation = 0.0;  ///< 0 = uniform mesh (symmetry presolve fires)
  std::vector<std::uint64_t> corpus;  ///< instance-generator seeds
  bool milp = true;            ///< run branch and bound
  bool require_proof = true;   ///< B&B must end kOptimal (else a node budget)
  std::int64_t node_limit = 50'000'000;
  /// MipOptions::num_threads. With more than one worker the proved objective
  /// is compared with a 1-worker reference, and the tree is nondeterministic.
  int threads = 1;
  bool exact_certify = false;  ///< certify_bnb_exact after the float replay
  bool certify_root_lp = false;///< certify_lp on the audit's root certificate
  int anneal_iterations = 0;   ///< > 0: annealing refinement after the heuristic
  int fault_trials = 0;        ///< > 0: fault-injection campaign per deployment
  /// Whole-corpus set-ups per timed set-up round (a round takes ~20 ms).
  int setup_reps = 1;
};

/// MipOptions::time_limit_s of every solve. It must never bind: a solve that
/// reaches it counts as a failure.
inline constexpr double kTimeLimitS = 150.0;

const Spec* find_spec(const std::string& name);
std::vector<std::string> spec_names();

/// Generate one instance of `spec` from an instance-generator seed.
std::unique_ptr<nd::deploy::DeploymentProblem> generate(const Spec& spec, std::uint64_t seed);

// --- Spans -------------------------------------------------------------------

/// Benchmark-owned span recorder. Every stage is timed whether or not the run
/// traces (the per-instance rows need the durations); when tracing, each
/// stage also opens an obs::Span of the same name so it lands in the Chrome
/// trace, and its (name, parent, start, end) record feeds the self-time table.
class Tracer {
 public:
  struct Rec {
    const char* name = nullptr;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  int open(const char* name, int parent, std::int64_t start_ns);
  void close(int id, std::int64_t end_ns);
  [[nodiscard]] std::vector<Rec> records() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Rec> recs_;  // guarded by mu_
};

/// RAII stage: wall time of one layer call.
class Stage {
 public:
  Stage(Tracer& tr, const char* name, int parent);
  ~Stage();
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  /// Close early and return the wall seconds (idempotent).
  double stop();
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tr_;
  nd::obs::Span span_;
  int id_ = -1;
  std::int64_t start_ns_ = 0;
  double seconds_ = -1.0;
};

/// Process CPU seconds (getrusage: user + system).
double cpu_seconds();

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// Peak resident memory of this process image in MB (10^6 bytes).
double peak_rss_mb();

/// Constraint-matrix nonzeros of a deployment MILP.
long long model_nnz(const nd::model::Formulation& f);

// --- Per-instance records -------------------------------------------------------

/// Deliberate corruption of one output before it is checked (self-test of
/// the checks: a tampered run must count failures and exit non-zero).
enum class Tamper { kNone, kAudit, kDeployment };

/// A generated instance after the JSON problem round-trip.
struct Instance {
  std::uint64_t seed = 0;
  std::unique_ptr<nd::deploy::DeploymentProblem> problem;
  double reference_obj = 0.0;  ///< 1-worker proved optimum (serial_reference)
};

/// Everything one pass measured on one instance.
struct InstanceRun {
  std::uint64_t seed = 0;
  std::string status;
  std::int64_t nodes = 0;
  double solve_s = 0.0, solve_cpu_s = 0.0, certify_s = 0.0;
  double search_s = 0.0;           ///< B&B (or annealing) wall time
  std::int64_t search_units = 0;   ///< B&B nodes (or annealing proposals)
  bool has_be = false;
  double be = 0.0;                 ///< BE energy of the returned deployment [J]
  int rows = 0, cols = 0;
  long long nnz = 0;
  int attempted = 0, failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> layer;  ///< per-layer metric contributions

  void check(bool ok, const std::string& what);
};

struct PassOptions {
  Tamper tamper = Tamper::kNone;
  std::uint64_t run_seed = 1;  ///< seeds the fault-injection stream
};

/// Run the workload pipeline on one instance: solve, then every check.
InstanceRun run_instance(const Spec& spec, const Instance& inst, Tracer& tr,
                         const PassOptions& opt);

/// 1-worker proved objective of an instance, or NaN without a proof
/// (untimed reference for the multi-worker workload).
double serial_reference(const Instance& inst);

/// Traced-run probes on one instance (outside the timed passes): model build
/// and presolve cost and size, and on the milp workloads the LP kernels on the
/// presolved root LP and its optimal basis. Adds model.*, presolve.* and lp.*
/// entries to `out`.
void probe_instance(const Spec& spec, const Instance& inst, Tracer& tr,
                    std::map<std::string, double>& out);

}  // namespace pb
