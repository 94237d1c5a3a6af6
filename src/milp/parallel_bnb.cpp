// The branch-and-bound tree search: milp::solve for every
// MipOptions::num_threads.
//
// Architecture (full treatment in docs/parallelism.md):
//  * Worker 0 runs on the calling thread and owns the engine that solves the
//    root. num_threads > 1 adds a ThreadPool of num_threads - 1 threads, one
//    worker each, whose private engine is built on its first pop. A 1-worker
//    solve builds no pool; it runs the same code with nobody to share with.
//  * Open subtrees live in a shared best-bound heap (smallest parent LP
//    bound pops first, node id breaks ties) guarded by the queue mutex
//    together with the node-id counter, the node count and the in-flight
//    count.
//  * Every node, the root included, goes through the same per-node code. A
//    worker explores the subtree it popped DEPTH-FIRST: descend into the
//    child nearest the fractional LP value, keep the far sibling on a
//    worker-local LIFO stack, backtrack to the deepest kept sibling. While
//    the shared queue holds fewer subtrees than there are workers, the far
//    sibling is DONATED to it instead, so idle workers get fed.
//  * A node is re-solved WARM iff the bound-change path applied to the
//    worker's engine starts with the node's parent path, entry by entry:
//    revert the applied suffix, tighten the node's one bound, dual re-solve.
//    Otherwise it is solved COLD: reset to the root bounds, apply the path,
//    solve from scratch. Local backtracking and a worker's own donation
//    popped back are warm — the connected revert/tighten walk of a
//    depth-first search. A hand-off between workers is cold unless the
//    receiving engine already sits below the node's parent, which makes it
//    the same connected walk: a warm basis carried across an arbitrary
//    cross-subtree jump is numerically untrustworthy (it can declare
//    optimality at suboptimal points). At one worker every node after the
//    root is warm.
//  * The incumbent objective is an atomic double read lock-free in the hot
//    path; improvements take the incumbent mutex, re-check, and publish
//    objective + point together. Stale reads are sound: an out-of-date
//    incumbent only weakens the cutoff, and the replayer validates prunes
//    against the FINAL (tightest) cutoff, which every weaker prune clears.
//  * Every worker appends nodes to its own AuditShard; ids are assigned
//    under the queue mutex at creation time, so merge_audit_shards()
//    restores one globally creation-ordered tree no matter which worker
//    processed what. The proved objective is identical for every worker
//    count; the tree shape is schedule-dependent, but every shape certifies.
//
// Lock order: the queue mutex and the incumbent mutex are never held at the
// same time (each critical section takes exactly one of them).
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/invariants.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "lp/certificate.hpp"
#include "lp/simplex.hpp"
#include "milp/audit.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/presolve.hpp"
#include "obs/obs.hpp"

namespace nd::milp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Most fractional integer variable within the highest fractional priority
/// class, or -1 if the engine's current point is integral.
int pick_branch_var(const Model& model, const lp::Simplex& engine, double int_tol) {
  int best = -1;
  int best_prio = 0;
  double best_frac = 0.0;
  for (int j = 0; j < model.num_vars(); ++j) {
    if (!model.is_integer(j)) continue;
    const double v = engine.value(j);
    const double frac = std::abs(v - std::round(v));
    if (frac <= int_tol) continue;
    const int prio = model.priority(j);
    if (best < 0 || prio > best_prio || (prio == best_prio && frac > best_frac)) {
      best = j;
      best_prio = prio;
      best_frac = frac;
    }
  }
  return best;
}

/// obs counter a node disposition contributes to; nullptr for dispositions
/// that are bookkeeping rather than search work (unprocessed, limit-cut).
const char* disp_counter(NodeDisp d) {
  switch (d) {
    case NodeDisp::kBranched: return "bnb.branched";
    case NodeDisp::kPrunedBound: return "bnb.pruned_bound";
    case NodeDisp::kPrunedInfeasible: return "bnb.pruned_infeasible";
    case NodeDisp::kIntegral: return "bnb.integral";
    case NodeDisp::kCompletionClosed: return "bnb.completion_closed";
    case NodeDisp::kSkippedParentBound: return "bnb.skipped_parent_bound";
    default: return nullptr;
  }
}

constexpr std::size_t kNumDisp = static_cast<std::size_t>(NodeDisp::kLimit) + 1;

struct BoundChange {
  int var = -1;
  double lo = 0.0, hi = 0.0;
  bool operator==(const BoundChange&) const = default;
};

/// An open subtree: the bound-change path from the root to its root node
/// (empty for the root itself). The audit entry for the node is written by
/// whichever worker processes it (or by a drain, as kUnprocessed, when a
/// limit stops the search).
struct Subproblem {
  int id = -1;
  int parent = -1;
  double parent_bound = -kInf;  ///< LP bound of the parent (the pop priority)
  std::vector<BoundChange> path;  ///< last entry is this node's own interval
};

/// Heap order: best (smallest) parent bound first; among equals the oldest
/// node, so the pop order is a pure function of the queue contents.
bool heap_later(const Subproblem& a, const Subproblem& b) {
  if (a.parent_bound != b.parent_bound) return a.parent_bound > b.parent_bound;
  return a.id > b.id;
}

AuditNode audit_entry(const Subproblem& sub) {
  AuditNode n;
  n.id = sub.id;
  n.parent = sub.parent;
  if (!sub.path.empty()) {
    n.var = sub.path.back().var;
    n.lo = sub.path.back().lo;
    n.hi = sub.path.back().hi;
  }
  return n;
}

struct SearchState {
  // --- queue mutex: open heap, id counter, in-flight count, node count,
  //     stop flag, limit bound, first worker error, LP iteration total.
  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::vector<Subproblem> open;
  int next_id = 1;    ///< id 0 is the root
  int in_flight = 1;  ///< worker 0 starts with the root in hand
  std::int64_t nodes = 0;
  bool stop = false;
  double limit_bound = kInf;  ///< min parent bound over limit-cut nodes
  std::exception_ptr error;
  long long lp_iterations = 0;

  // --- root outcome: written by worker 0 while the root is the only node in
  //     the search, before its children are published under the queue mutex;
  //     read-only from then on.
  double root_bound = -kInf;
  std::vector<double> root_lo, root_hi;  ///< model bounds after root fixings

  // --- incumbent mutex: the point; the objective doubles as the lock-free
  //     cutoff source.
  std::mutex inc_mu;
  std::atomic<double> incumbent_obj{kInf};
  std::vector<double> incumbent_x;
  bool have_incumbent = false;
};

struct SearchConfig {
  const Model* model = nullptr;
  const MipOptions* opt = nullptr;
  const Stopwatch* clock = nullptr;
  std::chrono::steady_clock::time_point deadline;
  lp::Simplex::Options lp_opt;
  AuditLog* audit = nullptr;
  /// Worker count, and the donation threshold: a worker pushes a sibling to
  /// the shared queue (instead of its local stack) while the queue holds
  /// fewer open subtrees than this — enough to feed idle workers, rare
  /// enough that almost every node keeps warm-re-solve cost.
  int workers = 1;
  /// Monotonic origin of the solve (obs::now_ns at entry): audit-node t_ns
  /// stamps are relative to it.
  std::int64_t start_ns = 0;
};

double cutoff_of(const SearchState& st, const MipOptions& opt) {
  const double inc = st.incumbent_obj.load(std::memory_order_relaxed);
  if (!std::isfinite(inc)) return kInf;
  return inc - std::max(opt.abs_gap, opt.rel_gap * std::abs(inc));
}

/// Publish a candidate point under the incumbent mutex; returns true (and
/// stamps the node's incumbent fields) iff it strictly improved the shared
/// incumbent at that moment.
bool try_promote(SearchState& st, double cand_obj, std::vector<double> x, AuditNode* node) {
  const std::lock_guard<std::mutex> lock(st.inc_mu);
  if (st.have_incumbent &&
      cand_obj >= st.incumbent_obj.load(std::memory_order_relaxed)) {
    return false;
  }
  st.incumbent_obj.store(cand_obj, std::memory_order_relaxed);
  st.incumbent_x = std::move(x);
  st.have_incumbent = true;
  node->incumbent_update = true;
  node->incumbent_obj = cand_obj;
  return true;
}

/// The engine-side bookkeeping of one worker: the bound-change path
/// currently applied, and per entry the bounds the variable had just before
/// (so a suffix can be reverted exactly — a variable branched twice on the
/// path must revert to its mid-path interval, not to the root's).
struct EngineState {
  std::vector<BoundChange> applied;
  std::vector<BoundChange> saved;  ///< pre-change bounds, aligned with applied
  bool solved = false;             ///< the engine holds a basis to warm-start from
};

/// The warm rule: the engine holds a basis, and the path applied to it starts
/// with `path`'s parent path, entry by entry. The root (empty path) has no
/// parent and is always cold.
bool on_path(const EngineState& es, const std::vector<BoundChange>& path) {
  if (!es.solved || path.empty() || es.applied.size() < path.size() - 1) return false;
  return std::equal(path.begin(), path.end() - 1, es.applied.begin());
}

/// Cold move: reset the engine to the root (post-fixing) bounds and apply
/// `path` from scratch. The caller follows with a cold solve().
void apply_path(lp::Simplex& engine, const SearchState& st, EngineState& es,
                const std::vector<BoundChange>& path) {
  for (const BoundChange& bc : es.applied) {
    engine.set_bound(bc.var, st.root_lo[static_cast<std::size_t>(bc.var)],
                     st.root_hi[static_cast<std::size_t>(bc.var)]);
  }
  es.applied.clear();
  es.saved.clear();
  for (const BoundChange& bc : path) {
    es.saved.push_back({bc.var, engine.bound_lo(bc.var), engine.bound_hi(bc.var)});
    engine.set_bound(bc.var, bc.lo, bc.hi);
    es.applied.push_back(bc);
  }
}

/// Warm move to an on_path() node: revert the applied suffix in LIFO order to
/// each entry's saved bounds, then apply the node's own interval. The caller
/// follows with dual_resolve().
void warm_goto(lp::Simplex& engine, EngineState& es, const std::vector<BoundChange>& path) {
  const std::size_t prefix = path.size() - 1;
  while (es.applied.size() > prefix) {
    engine.set_bound(es.saved.back().var, es.saved.back().lo, es.saved.back().hi);
    es.applied.pop_back();
    es.saved.pop_back();
  }
  const BoundChange& bc = path.back();
  es.saved.push_back({bc.var, engine.bound_lo(bc.var), engine.bound_hi(bc.var)});
  engine.set_bound(bc.var, bc.lo, bc.hi);
  es.applied.push_back(bc);
}

/// Root bookkeeping right after the root LP: its certificate and bound for
/// the audit, and reduced-cost fixing — with an incumbent in hand, a
/// nonbasic integer variable whose reduced cost alone would push the
/// objective past the incumbent is frozen at its bound for the whole tree.
void record_root(lp::Simplex& engine, lp::SolveStatus s, const SearchConfig& cfg,
                 SearchState& st) {
  const Model& model = *cfg.model;
  AuditLog* aud = cfg.audit;
  if (aud != nullptr) aud->root_cert = engine.extract_certificate();
  st.root_bound = s == lp::SolveStatus::kOptimal      ? engine.objective()
                  : s == lp::SolveStatus::kInfeasible ? kInf
                                                      : -kInf;
  if (aud != nullptr) aud->root_bound = st.root_bound;
  const double incumbent = st.incumbent_obj.load(std::memory_order_relaxed);
  if (!std::isfinite(incumbent) || s != lp::SolveStatus::kOptimal) return;
  const double slack = incumbent - st.root_bound;
  int fixed = 0;
  for (int j = 0; j < model.num_vars(); ++j) {
    if (!model.is_integer(j)) continue;
    const double lo = engine.bound_lo(j);
    const double hi = engine.bound_hi(j);
    if (hi - lo < 0.5) continue;
    const double d = engine.reduced_cost(j);
    const auto vstat = engine.var_status(j);
    const bool at_lower = vstat == lp::VarStatus::kAtLower && d > slack + 1e-9;
    if (!at_lower && !(vstat == lp::VarStatus::kAtUpper && -d > slack + 1e-9)) continue;
    const double fix = at_lower ? lo : hi;
    engine.set_bound(j, fix, fix);
    st.root_lo[static_cast<std::size_t>(j)] = fix;
    st.root_hi[static_cast<std::size_t>(j)] = fix;
    if (aud != nullptr) aud->root_fixings.push_back({j, at_lower, fix, fix});
    ++fixed;
  }
  if (cfg.opt->verbose && fixed > 0) {
    std::printf("[bnb] reduced-cost fixing froze %d integer variable(s) at the root\n", fixed);
  }
}

/// One worker: take a subtree (worker 0 starts with the root; the others pop
/// the shared queue), explore it depth-first on a worker-local LIFO stack,
/// donating far siblings to the queue while it runs low (cfg.workers), and
/// come back for the next subtree until the queue is empty and no worker
/// holds a subtree. `engine` is the root's engine for worker 0 and nullptr
/// for pool workers, which build their own on the first pop.
void worker_main(const SearchConfig& cfg, SearchState& st, AuditShard& shard, int w,
                 lp::Simplex* engine) {
  const Model& model = *cfg.model;
  const MipOptions& opt = *cfg.opt;
  const bool pooled = cfg.workers > 1;
  std::optional<lp::Simplex> own_engine;
  EngineState es;
  std::vector<Subproblem> local;  ///< LIFO sibling stack of the current subtree

  // Record every entry of the local stack as created-but-unreached and fold
  // its bound into the limit bound — the worker-local analogue of the final
  // open-heap drain in solve(). Takes the queue mutex itself.
  const auto drain_local = [&cfg, &st, &shard, &local] {
    if (local.empty()) return;
    const std::lock_guard<std::mutex> drain_lock(st.queue_mu);
    for (const Subproblem& sub : local) {
      st.limit_bound = std::min(st.limit_bound, sub.parent_bound);
      if (cfg.audit != nullptr) {
        AuditNode n = audit_entry(sub);
        n.t_ns = obs::now_ns() - cfg.start_ns;
        shard.nodes.push_back(n);
      }
    }
    local.clear();
  };

  // Worker-local telemetry tallies, flushed once at worker exit.
  [[maybe_unused]] const std::int64_t worker_start_ns = obs::now_ns();
  std::int64_t busy_ns = 0;
  long long subtrees = 0;
  long long donations = 0;
  long long processed_nodes = 0;
  long long incumbent_updates = 0;
  std::array<long long, kNumDisp> disp_counts{};
  const auto promote = [&st, &opt, &incumbent_updates](double obj, std::vector<double> x,
                                                       AuditNode& node) {
    if (!try_promote(st, obj, std::move(x), &node)) return;
    ++incumbent_updates;
    if (opt.telemetry) ND_OBS_INSTANT("bnb.incumbent", obj);
  };

  Subproblem cur;
  cur.id = 0;  // the root (empty path), which worker 0 starts holding
  bool holding = w == 0;
  std::unique_lock<std::mutex> lock(st.queue_mu);
  while (true) {
    if (!holding) {
      st.queue_cv.wait(lock, [&st] {
        return st.stop || !st.open.empty() || st.in_flight == 0;
      });
      if (st.stop || (st.open.empty() && st.in_flight == 0)) break;
      std::pop_heap(st.open.begin(), st.open.end(), heap_later);
      cur = std::move(st.open.back());
      st.open.pop_back();
      ++st.in_flight;
    }
    holding = false;
    [[maybe_unused]] const auto queue_depth = static_cast<double>(st.open.size());
    lock.unlock();
    if (engine == nullptr) {
      engine = &own_engine.emplace(model.lp(), cfg.lp_opt);
      engine->set_deadline(cfg.deadline);
      for (int j = 0; j < model.num_vars(); ++j) {
        const auto ju = static_cast<std::size_t>(j);
        if (st.root_lo[ju] != model.lp().lo(j) || st.root_hi[ju] != model.lp().hi(j)) {
          engine->set_bound(j, st.root_lo[ju], st.root_hi[ju]);
        }
      }
    }

    // The subtree span closes at the end of this loop iteration (after the
    // local stack drains), giving each popped subtree one trace slice on
    // this worker's lane; busy_ns accumulates the same window.
    const obs::Span subtree_span("bnb.par.subtree", pooled && opt.telemetry, /*hist=*/true);
    const std::int64_t subtree_start_ns = obs::now_ns();
    ++subtrees;
    if (pooled && opt.telemetry) ND_OBS_VALUE("bnb.par.queue_depth", queue_depth);

    bool working = true;
    while (working) {
      const obs::HistTimer node_timer("bnb.node_ns", opt.telemetry);
      working = false;
      AuditNode node = audit_entry(cur);

      bool stopped = false;
      {
        const std::lock_guard<std::mutex> stop_lock(st.queue_mu);
        if (st.stop) {
          // Another worker hit a limit mid-subtree: leave this node (and
          // everything still on the local stack) as created-but-unreached
          // and fold their bounds into the open set's.
          st.limit_bound = std::min(st.limit_bound, cur.parent_bound);
          stopped = true;
        }
      }
      if (stopped) {
        if (cfg.audit != nullptr) {
          node.t_ns = obs::now_ns() - cfg.start_ns;
          shard.nodes.push_back(node);
        }
        drain_local();
        break;
      }

      bool hit_limit = false;
      std::int64_t node_count = 0;
      // A warm move is made before the parent-bound check, so the engine
      // sees the same sequence of bound changes whether or not the node is
      // then skipped.
      const bool warm = on_path(es, cur.path);
      if (warm) warm_goto(*engine, es, cur.path);
      if (cur.parent_bound >= cutoff_of(st, opt)) {
        // The parent's bound already clears the cutoff: the subtree is never
        // solved (kSkippedParentBound replays against the parent's recorded
        // bound) and does not count as a node.
        node.disp = NodeDisp::kSkippedParentBound;
      } else {
        if (!warm) apply_path(*engine, st, es, cur.path);
        const lp::SolveStatus s = warm ? engine->dual_resolve() : engine->solve();
        es.solved = true;
        ND_ASSERT(s != lp::SolveStatus::kUnbounded,
                  "deployment MILPs have bounded variables; unbounded node LP "
                  "indicates a model bug");
        if (cur.id == 0) record_root(*engine, s, cfg, st);
        if (s == lp::SolveStatus::kIterLimit) {
          node.disp = NodeDisp::kLimit;
          hit_limit = true;
        } else {
          {
            const std::lock_guard<std::mutex> count_lock(st.queue_mu);
            node_count = ++st.nodes;
          }
          ++processed_nodes;
          if (cfg.clock->seconds() > opt.time_limit_s || node_count > opt.node_limit) {
            node.disp = NodeDisp::kLimit;
            hit_limit = true;
          } else if (s == lp::SolveStatus::kInfeasible) {
            node.disp = NodeDisp::kPrunedInfeasible;
          } else {
            node.lp_solved = true;
            node.bound = engine->objective();
            ND_INVARIANT(node.bound >= cur.parent_bound -
                                           1e-5 * (1.0 + std::abs(cur.parent_bound)),
                         "child LP bound better than its parent node's");
            bool closed = false;
            if (node.bound >= cutoff_of(st, opt)) {
              node.disp = NodeDisp::kPrunedBound;
              closed = true;
            }
            if (!closed && opt.completion) {
              // Problem-specific completion: may both improve the incumbent
              // and close this node when it matches the LP bound.
              std::vector<double> candidate;
              if (opt.completion(engine->solution(), &candidate) &&
                  model.is_mip_feasible(candidate, std::max(1e-5, opt.int_tol))) {
                const double cand_obj = model.lp().objective_value(candidate);
                node.has_completion = true;
                node.completion_obj = cand_obj;
                promote(cand_obj, std::move(candidate), node);
                if (cand_obj <=
                    node.bound + std::max(opt.abs_gap, opt.rel_gap * std::abs(cand_obj))) {
                  node.disp = NodeDisp::kCompletionClosed;
                  closed = true;
                }
              }
            }
            if (!closed) {
              const int bv = pick_branch_var(model, *engine, opt.int_tol);
              if (bv < 0) {
                // Integral point: round and promote to incumbent.
                std::vector<double> x = engine->solution();
                for (int j = 0; j < model.num_vars(); ++j) {
                  if (model.is_integer(j)) {
                    const auto ju = static_cast<std::size_t>(j);
                    x[ju] = std::round(x[ju]);
                  }
                }
                if (model.is_mip_feasible(x, std::max(1e-5, opt.int_tol))) {
                  promote(node.bound, std::move(x), node);
                }
                node.disp = NodeDisp::kIntegral;
              } else {
                const double old_lo = engine->bound_lo(bv);
                const double old_hi = engine->bound_hi(bv);
                if (old_hi - old_lo < 0.5) {
                  // A fixed variable with a fractional value: the engine lost
                  // primal feasibility beyond repair — stop with what we have.
                  node.disp = NodeDisp::kLimit;
                  hit_limit = true;
                } else {
                  // Clamp against tolerance-level bound violations so both
                  // children get non-empty domains.
                  const double v = std::clamp(engine->value(bv), old_lo, old_hi);
                  double fl = std::floor(v);
                  fl = std::clamp(fl, old_lo, old_hi - 1.0);
                  node.disp = NodeDisp::kBranched;
                  node.branch_var = bv;
                  Subproblem near_child, far_child;
                  near_child.parent = far_child.parent = node.id;
                  near_child.parent_bound = far_child.parent_bound = node.bound;
                  near_child.path = cur.path;
                  far_child.path = cur.path;
                  if (v - fl <= 0.5) {  // dive down, keep the up child
                    near_child.path.push_back({bv, old_lo, fl});
                    far_child.path.push_back({bv, fl + 1.0, old_hi});
                  } else {  // dive up, keep the down child
                    near_child.path.push_back({bv, fl + 1.0, old_hi});
                    far_child.path.push_back({bv, old_lo, fl});
                  }
                  bool donate = false;
                  {
                    const std::lock_guard<std::mutex> push_lock(st.queue_mu);
                    // The dived-into child gets the smaller id, so equal
                    // bounds pop in dive order.
                    near_child.id = st.next_id++;
                    far_child.id = st.next_id++;
                    donate = static_cast<int>(st.open.size()) < cfg.workers;
                    if (donate) {
                      st.open.push_back(std::move(far_child));
                      std::push_heap(st.open.begin(), st.open.end(), heap_later);
                    }
                  }
                  if (donate) {
                    ++donations;
                    st.queue_cv.notify_all();
                  } else {
                    local.push_back(std::move(far_child));
                  }
                  cur = std::move(near_child);
                  working = true;
                }
              }
            }
          }
        }
      }

      node.t_ns = obs::now_ns() - cfg.start_ns;
      if (cfg.audit != nullptr) shard.nodes.push_back(node);
      ++disp_counts[static_cast<std::size_t>(node.disp)];

      if (hit_limit) {
        [[maybe_unused]] std::int64_t total_nodes = 0;
        {
          const std::lock_guard<std::mutex> stop_lock(st.queue_mu);
          st.stop = true;
          st.limit_bound = std::min(st.limit_bound, cur.parent_bound);
          total_nodes = st.nodes;
        }
        ND_OBS_LOG(obs::LogLevel::kWarn, "bnb-limit",
                   {"nodes", static_cast<long long>(total_nodes)},
                   {"seconds", cfg.clock->seconds()},
                   {"worker", w});
        drain_local();
        st.queue_cv.notify_all();
      } else if (!working && !local.empty()) {
        // Backtrack to the deepest unexplored sibling; warm_goto reverts
        // the applied suffix when the node is actually reached.
        cur = std::move(local.back());
        local.pop_back();
        working = true;
      }
      if (opt.verbose && node_count > 0 && node_count % 5000 == 0) {
        std::printf("[bnb] nodes=%lld\n", static_cast<long long>(node_count));
      }
    }
    ND_ASSERT(local.empty(), "worker subtree ended with live local subproblems");
    busy_ns += obs::now_ns() - subtree_start_ns;

    lock.lock();
    --st.in_flight;
    if (st.stop || (st.open.empty() && st.in_flight == 0)) {
      st.queue_cv.notify_all();
    }
  }
  lock.unlock();
  if (opt.telemetry) {
    ND_OBS_COUNT("bnb.nodes", processed_nodes);
    for (std::size_t d = 0; d < kNumDisp; ++d) {
      const char* c = disp_counter(static_cast<NodeDisp>(d));
      if (c != nullptr) ND_OBS_COUNT(c, disp_counts[d]);
    }
    ND_OBS_COUNT("bnb.incumbent_updates", incumbent_updates);
    if (engine != nullptr) {
      ND_OBS_COUNT("bnb.cold_solves", engine->counters().solves);
      ND_OBS_COUNT("bnb.warm_resolves", engine->counters().dual_resolves);
      lp::emit_lp_counters(*engine);
    }
    if (pooled) {
      ND_OBS_COUNT("bnb.par.busy_ns", busy_ns);
      ND_OBS_COUNT("bnb.par.idle_ns",
                   std::max<std::int64_t>(0, obs::now_ns() - worker_start_ns - busy_ns));
      ND_OBS_COUNT("bnb.par.w" + std::to_string(w) + ".busy_ns", busy_ns);
      ND_OBS_COUNT("bnb.par.subtrees", subtrees);
      ND_OBS_COUNT("bnb.par.donations", donations);
    }
  }
  lock.lock();
  if (engine != nullptr) st.lp_iterations += engine->iterations();
}

}  // namespace

MipResult solve(const Model& model, const MipOptions& opt) {
  // Root presolve first (solve_presolved calls back here with presolve off
  // and the REDUCED model).
  if (opt.presolve) return detail::solve_presolved(model, opt);
  const int workers = opt.num_threads > 0 ? opt.num_threads : ThreadPool::default_threads();
  Stopwatch clock;
  const obs::Span solve_span("bnb.solve", opt.telemetry);
  MipResult res;

  AuditLog* aud = opt.audit;
  if (aud != nullptr) {
    *aud = AuditLog{};
    aud->int_tol = opt.int_tol;
    aud->abs_gap = opt.abs_gap;
    aud->rel_gap = opt.rel_gap;
  }

  SearchConfig cfg;
  cfg.model = &model;
  cfg.opt = &opt;
  cfg.clock = &clock;
  cfg.audit = aud;
  // Node LPs re-solve in tens of pivots; a tight cap makes pathological
  // degenerate episodes fail fast into the rebuild/cold-solve fallback
  // instead of burning the node budget.
  cfg.lp_opt.max_iters = 50000;
  // Branching decisions read the node LP's VERTEX, not just its objective:
  // on a degenerate optimal face, which vertex the engine lands on decides
  // which variable is fractional and hence the whole tree shape. Dantzig's
  // weight-free rule picks that vertex from the basis alone; devex lands on
  // other (equally optimal) vertices and can reshape the tree by orders of
  // magnitude, so the proved-optimum trees and their baselines are Dantzig's.
  cfg.lp_opt.pricing = lp::Pricing::kDantzig;
  cfg.workers = workers;
  cfg.start_ns = obs::now_ns();
  cfg.deadline = std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(opt.time_limit_s));

  SearchState st;
  st.root_lo.resize(static_cast<std::size_t>(model.num_vars()));
  st.root_hi.resize(static_cast<std::size_t>(model.num_vars()));
  for (int j = 0; j < model.num_vars(); ++j) {
    st.root_lo[static_cast<std::size_t>(j)] = model.lp().lo(j);
    st.root_hi[static_cast<std::size_t>(j)] = model.lp().hi(j);
  }
  // Seed the incumbent from the warm start if it validates.
  if (opt.warm_start != nullptr &&
      model.is_mip_feasible(*opt.warm_start, std::max(1e-6, opt.int_tol))) {
    st.incumbent_x = *opt.warm_start;
    st.incumbent_obj.store(model.lp().objective_value(*opt.warm_start));
    st.have_incumbent = true;
    if (aud != nullptr) {
      aud->warm_accepted = true;
      aud->warm_obj = st.incumbent_obj.load();
    }
  }

  // One shard per worker, plus one for the open nodes drained after a limit.
  std::vector<AuditShard> shards(static_cast<std::size_t>(workers) + 1);
  const auto run_worker = [&cfg, &st, &shards](int w, lp::Simplex* engine) {
    try {
      worker_main(cfg, st, shards[static_cast<std::size_t>(w)], w, engine);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(st.queue_mu);
      if (!st.error) st.error = std::current_exception();
      st.stop = true;
      st.queue_cv.notify_all();
    }
  };
  {
    lp::Simplex root_engine(model.lp(), cfg.lp_opt);
    root_engine.set_deadline(cfg.deadline);
    std::optional<ThreadPool> pool;
    if (workers > 1) {
      pool.emplace(workers - 1);
      for (int w = 1; w < workers; ++w) pool->submit([&run_worker, w] { run_worker(w, nullptr); });
    }
    run_worker(0, &root_engine);
    if (pool) pool->wait_idle();
  }
  if (st.error) std::rethrow_exception(st.error);

  // ---- Final bookkeeping (single-threaded again from here on).
  res.nodes = st.nodes;
  res.lp_iterations = static_cast<int>(st.lp_iterations);
  double open_bound = st.limit_bound;
  for (const Subproblem& sub : st.open) {
    open_bound = std::min(open_bound, sub.parent_bound);
    if (aud != nullptr) {
      AuditNode n = audit_entry(sub);
      n.t_ns = obs::now_ns() - cfg.start_ns;
      shards.back().nodes.push_back(n);
    }
  }
  const double inc = st.have_incumbent ? st.incumbent_obj.load() : kInf;
  if (st.stop) {
    res.status = st.have_incumbent ? MipStatus::kFeasible : MipStatus::kUnknown;
    res.best_bound = std::min({open_bound, st.root_bound, st.have_incumbent ? inc : open_bound});
  } else {
    res.status = st.have_incumbent ? MipStatus::kOptimal : MipStatus::kInfeasible;
    res.best_bound = inc;
  }
  if (st.have_incumbent) {
    res.obj = inc;
    res.x = std::move(st.incumbent_x);
  }
  res.seconds = clock.seconds();
  if (aud != nullptr) {
    ND_ASSERT(merge_audit_shards(shards, aud),
              "branch-and-bound produced a non-contiguous audit id range");
    aud->status = res.status;
    aud->obj = res.obj;
    aud->best_bound = res.best_bound;
    aud->x = res.x;
    if (opt.telemetry) {
      ND_OBS_COUNT("mem.audit.bytes",
                   static_cast<long long>(aud->nodes.capacity() * sizeof(AuditNode)));
    }
  }
  return res;
}

}  // namespace nd::milp
