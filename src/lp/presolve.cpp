#include "lp/presolve.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "analysis/exact/envelope.hpp"
#include "common/invariants.hpp"
#include "lp/sparse.hpp"

namespace nd::lp {
namespace {

// ---------------------------------------------------------------------------
// Error-free transformation checks.
//
// The compaction step substitutes a pinned column out of a row only when the
// double-precision update reproduces the exact rational result. These two
// predicates decide that: TwoProduct via fma for a*b, Knuth TwoSum for a+b.
// A zero error term means the rounded result IS the exact result.
// ---------------------------------------------------------------------------

bool product_exact(double a, double b, double* t) {
  *t = a * b;
  if (!std::isfinite(*t)) return false;
  return std::fma(a, b, -*t) == 0.0;  // fp-exact: error term of TwoProduct
}

bool sum_exact(double a, double b, double* s) {
  *s = a + b;
  if (!std::isfinite(*s)) return false;
  const double bv = *s - a;
  const double av = *s - bv;
  return ((a - av) + (b - bv)) == 0.0;  // fp-exact: error term of TwoSum
}

/// Coefficients below this magnitude are never used as propagation pivots:
/// dividing by them amplifies the activity margin past usefulness. Derived
/// (2^-20), not tuned — any power of two well below model data works.
double coef_floor() { return std::ldexp(1.0, -20); }

/// Fixpoint round cap of presolve_model_passes.
constexpr int kMaxRounds = 10;

}  // namespace

// ---------------------------------------------------------------------------
// Shared working state: the problem after a prefix of the reduction log.
// Both the mechanical application step and the pass engine replay records
// through the same code, so solver and checkers agree bit-for-bit. Lives in
// a named (TU-local) detail namespace, not the anonymous one, so it can back
// the pimpl of the public ReductionReplay without subobject-linkage issues.
// ---------------------------------------------------------------------------

namespace replay_detail {

struct WorkRow {
  std::vector<std::pair<int, double>> coef;
  Sense sense = Sense::LE;
  double rhs = 0.0;
  bool dropped = false;
  int removed_entries = 0;  ///< entries substituted out by pinned columns
};

struct State {
  std::vector<double> lo, hi;
  std::vector<char> pinned;  ///< a record made lo == hi for this column
  std::vector<WorkRow> rows;
  PresolveStats stats;
  bool infeasible = false;
  std::string why;

  explicit State(const Problem& p) {
    const int n = p.num_vars();
    const int m = p.num_rows();
    lo.resize(static_cast<std::size_t>(n));
    hi.resize(static_cast<std::size_t>(n));
    pinned.assign(static_cast<std::size_t>(n), 0);
    for (int j = 0; j < n; ++j) {
      lo[static_cast<std::size_t>(j)] = p.lo(j);
      hi[static_cast<std::size_t>(j)] = p.hi(j);
    }
    rows.resize(static_cast<std::size_t>(m));
    for (int r = 0; r < m; ++r) {
      const Row& src = p.row(r);
      WorkRow& w = rows[static_cast<std::size_t>(r)];
      w.coef = src.coef;
      w.sense = src.sense;
      w.rhs = src.rhs;
    }
  }

  void fail(std::string reason) {
    if (!infeasible) why = std::move(reason);
    infeasible = true;
  }

  [[nodiscard]] bool var_ok(int j) const {
    return j >= 0 && j < static_cast<int>(lo.size());
  }
  [[nodiscard]] bool row_ok(int r) const {
    return r >= 0 && r < static_cast<int>(rows.size());
  }

  /// Apply one record. Returns false once the state is contradictory (a
  /// crossed box or an unsatisfiable pinned row) — callers stop replaying.
  bool apply(const Reduction& rc) {
    if (infeasible) return false;
    switch (rc.kind) {
      case ReductionKind::kTightenLo: {
        if (!var_ok(rc.var) || !std::isfinite(rc.value)) {
          fail("malformed tighten-lo record");
          return false;
        }
        auto& l = lo[static_cast<std::size_t>(rc.var)];
        const double h = hi[static_cast<std::size_t>(rc.var)];
        if (rc.value > h) {
          fail("lower bound of x" + std::to_string(rc.var) + " raised past its upper bound");
          return false;
        }
        l = std::max(l, rc.value);
        ++stats.bound_tightenings;
        if (l == h) pinned[static_cast<std::size_t>(rc.var)] = 1;  // fp-exact
        return true;
      }
      case ReductionKind::kTightenHi: {
        if (!var_ok(rc.var) || !std::isfinite(rc.value)) {
          fail("malformed tighten-hi record");
          return false;
        }
        const double l = lo[static_cast<std::size_t>(rc.var)];
        auto& h = hi[static_cast<std::size_t>(rc.var)];
        if (rc.value < l) {
          fail("upper bound of x" + std::to_string(rc.var) + " lowered past its lower bound");
          return false;
        }
        h = std::min(h, rc.value);
        ++stats.bound_tightenings;
        if (l == h) pinned[static_cast<std::size_t>(rc.var)] = 1;  // fp-exact
        return true;
      }
      case ReductionKind::kFixVar: {
        if (!var_ok(rc.var) || !std::isfinite(rc.value)) {
          fail("malformed fix record");
          return false;
        }
        const std::size_t j = static_cast<std::size_t>(rc.var);
        if (rc.value < lo[j] || rc.value > hi[j]) {
          fail("fix value of x" + std::to_string(rc.var) + " outside its box");
          return false;
        }
        lo[j] = hi[j] = rc.value;
        pinned[j] = 1;
        ++stats.fixings;
        return true;
      }
      case ReductionKind::kDropRow: {
        if (!row_ok(rc.row)) {
          fail("malformed drop-row record");
          return false;
        }
        rows[static_cast<std::size_t>(rc.row)].dropped = true;
        return true;
      }
      case ReductionKind::kTightenCoef: {
        if (!row_ok(rc.row) || !var_ok(rc.var) || !std::isfinite(rc.coef) ||
            !std::isfinite(rc.rhs)) {
          fail("malformed tighten-coef record");
          return false;
        }
        WorkRow& w = rows[static_cast<std::size_t>(rc.row)];
        auto it = std::find_if(w.coef.begin(), w.coef.end(),
                               [&](const auto& e) { return e.first == rc.var; });
        if (it == w.coef.end()) {
          fail("tighten-coef record targets a variable absent from the row");
          return false;
        }
        if (rc.coef == 0.0) {  // fp-exact: coefficient tightened away entirely
          w.coef.erase(it);
          ++w.removed_entries;
          ++stats.nonzeros_removed;
        } else {
          it->second = rc.coef;
        }
        w.rhs = rc.rhs;
        ++stats.coef_tightenings;
        return true;
      }
    }
    fail("unknown reduction kind");
    return false;
  }
};

}  // namespace replay_detail

namespace {

using replay_detail::State;
using replay_detail::WorkRow;

/// Is the empty row `0 <sense> rhs` satisfied?
bool empty_row_satisfied(Sense s, double rhs) {
  switch (s) {
    case Sense::LE: return rhs >= 0.0;
    case Sense::GE: return rhs <= 0.0;
    case Sense::EQ: return rhs == 0.0;  // fp-exact: rhs updates were exact
  }
  return false;
}

}  // namespace

const char* to_string(ReductionKind k) {
  switch (k) {
    case ReductionKind::kTightenLo: return "tighten-lo";
    case ReductionKind::kTightenHi: return "tighten-hi";
    case ReductionKind::kFixVar: return "fix";
    case ReductionKind::kDropRow: return "drop-row";
    case ReductionKind::kTightenCoef: return "tighten-coef";
  }
  return "?";
}

const char* to_string(ReductionTag t) {
  switch (t) {
    case ReductionTag::kActivity: return "activity";
    case ReductionTag::kEmptyColumn: return "empty-column";
    case ReductionTag::kDominance: return "dominance";
    case ReductionTag::kOrbit: return "orbit";
    case ReductionTag::kTwin: return "twin";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// JSON round-trip.
// ---------------------------------------------------------------------------

json::Value reduction_log_to_json(const ReductionLog& log) {
  json::Object o;
  json::Array recs;
  recs.reserve(log.reductions.size());
  for (const Reduction& rc : log.reductions) {
    json::Object ro;
    ro.emplace_back("kind", to_string(rc.kind));
    ro.emplace_back("tag", to_string(rc.tag));
    if (rc.var >= 0) ro.emplace_back("var", rc.var);
    if (rc.row >= 0) ro.emplace_back("row", rc.row);
    if (rc.aux >= 0) ro.emplace_back("aux", rc.aux);
    ro.emplace_back("value", rc.value);
    if (rc.kind == ReductionKind::kTightenCoef) {
      ro.emplace_back("coef", rc.coef);
      ro.emplace_back("rhs", rc.rhs);
    }
    recs.emplace_back(std::move(ro));
  }
  o.emplace_back("reductions", std::move(recs));
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(log.canonical_hash));
  o.emplace_back("canonical_hash", std::string(buf));
  return json::Value(std::move(o));
}

namespace {

ReductionKind kind_from_string(const std::string& s) {
  if (s == "tighten-lo") return ReductionKind::kTightenLo;
  if (s == "tighten-hi") return ReductionKind::kTightenHi;
  if (s == "fix") return ReductionKind::kFixVar;
  if (s == "drop-row") return ReductionKind::kDropRow;
  if (s == "tighten-coef") return ReductionKind::kTightenCoef;
  throw std::invalid_argument("presolve: unknown reduction kind '" + s + "'");
}

ReductionTag tag_from_string(const std::string& s) {
  if (s == "activity") return ReductionTag::kActivity;
  if (s == "empty-column") return ReductionTag::kEmptyColumn;
  if (s == "dominance") return ReductionTag::kDominance;
  if (s == "orbit") return ReductionTag::kOrbit;
  if (s == "twin") return ReductionTag::kTwin;
  throw std::invalid_argument("presolve: unknown reduction tag '" + s + "'");
}

int opt_int(const json::Value& v, const char* key) {
  const json::Value* f = v.find(key);
  return f ? static_cast<int>(f->as_number()) : -1;
}

}  // namespace

ReductionLog reduction_log_from_json(const json::Value& v) {
  ReductionLog log;
  for (const json::Value& rv : v.at("reductions").as_array()) {
    Reduction rc;
    rc.kind = kind_from_string(rv.at("kind").as_string());
    rc.tag = tag_from_string(rv.at("tag").as_string());
    rc.var = opt_int(rv, "var");
    rc.row = opt_int(rv, "row");
    rc.aux = opt_int(rv, "aux");
    rc.value = rv.at("value").as_number();
    if (rc.kind == ReductionKind::kTightenCoef) {
      rc.coef = rv.at("coef").as_number();
      rc.rhs = rv.at("rhs").as_number();
    }
    log.reductions.push_back(rc);
  }
  const std::string& h = v.at("canonical_hash").as_string();
  log.canonical_hash = std::strtoull(h.c_str(), nullptr, 16);
  return log;
}

// ---------------------------------------------------------------------------
// Mechanical application + compaction.
// ---------------------------------------------------------------------------

PresolvedLp apply_reductions(const Problem& p, const ReductionLog& log) {
  const int n = p.num_vars();
  const int m = p.num_rows();
  PresolvedLp out;
  State st(p);
  for (const Reduction& rc : log.reductions) {
    if (!st.apply(rc)) break;
  }
  out.stats = st.stats;
  if (st.infeasible) {
    out.infeasible = true;
    out.infeasible_why = st.why;
    return out;
  }

  // Column index over the surviving entries, through the engine-shared
  // sparse type: the CSC column view hands each variable its rows AND
  // coefficients directly, so the substitution below reads values without
  // a per-row linear scan. `from_triplets` drops exact zeros by contract,
  // but a merged-to-zero input coefficient still occupies its row and must
  // be erased when its column is eliminated — those go in a side list.
  std::vector<Triplet> surviving;
  std::vector<std::vector<int>> zero_rows_of(static_cast<std::size_t>(n));
  for (int r = 0; r < m; ++r) {
    const WorkRow& w = st.rows[static_cast<std::size_t>(r)];
    if (w.dropped) continue;
    for (const auto& [j, a] : w.coef) {
      if (a == 0.0) {  // fp-exact: explicit zero entry, kept out of the matrix
        zero_rows_of[static_cast<std::size_t>(j)].push_back(r);
      } else {
        surviving.push_back({r, j, a});
      }
    }
  }
  const SparseMatrix cols = SparseMatrix::from_triplets(m, n, surviving);

  // Substitute pinned columns out wherever the arithmetic is exact. The
  // decision is transactional per column: either every affected row's rhs
  // update AND the objective-shift update are exact, or the column stays in
  // the problem with a [v, v] box.
  std::vector<char> elim(static_cast<std::size_t>(n), 0);
  out.fixed_value.assign(static_cast<std::size_t>(n), 0.0);
  double shift = 0.0;
  for (int j = 0; j < n; ++j) {
    const std::size_t ju = static_cast<std::size_t>(j);
    if (!st.pinned[ju]) continue;
    const double v = st.lo[ju];
    bool ok = true;
    std::vector<std::pair<int, double>> new_rhs;  // (row, updated rhs)
    if (v == 0.0) {  // fp-exact: zero substitution never perturbs anything
      // rhs and shift unchanged.
    } else {
      const SparseMatrix::ColView cv = cols.col(j);
      for (int k = 0; k < cv.len; ++k) {
        const int r = cv.idx[k];
        const WorkRow& w = st.rows[static_cast<std::size_t>(r)];
        double t = 0.0, s = 0.0;
        if (!product_exact(cv.val[k], v, &t) || !sum_exact(w.rhs, -t, &s)) {
          ok = false;
          break;
        }
        new_rhs.emplace_back(r, s);
      }
      if (ok) {
        double t = 0.0, s = 0.0;
        if (p.obj(j) == 0.0) {  // fp-exact: zero objective, shift unchanged
          s = shift;
        } else if (!product_exact(p.obj(j), v, &t) || !sum_exact(shift, t, &s)) {
          ok = false;
        }
        if (ok) shift = s;
      }
    }
    if (!ok) {
      ++out.stats.cols_pinned;
      continue;
    }
    elim[ju] = 1;
    out.fixed_value[ju] = v;
    ++out.stats.cols_removed;
    for (const auto& [r, rhs] : new_rhs) st.rows[static_cast<std::size_t>(r)].rhs = rhs;
    // Erase the eliminated column's entries — the CSC rows plus any
    // merged-to-zero entries the matrix dropped at construction.
    auto erase_entry = [&](int r) {
      WorkRow& w = st.rows[static_cast<std::size_t>(r)];
      auto it = std::find_if(w.coef.begin(), w.coef.end(),
                             [&](const auto& e) { return e.first == j; });
      ND_INVARIANT(it != w.coef.end(), "presolve: stale column index");
      w.coef.erase(it);
      ++w.removed_entries;
      ++out.stats.nonzeros_removed;
    };
    const SparseMatrix::ColView cv = cols.col(j);
    for (int k = 0; k < cv.len; ++k) erase_entry(cv.idx[k]);
    for (const int r : zero_rows_of[ju]) erase_entry(r);
  }
  out.obj_shift = shift;

  // Drop emptied rows (only rows that actually lost entries — an originally
  // empty row is preserved so an empty log is the identity transform).
  for (int r = 0; r < m; ++r) {
    WorkRow& w = st.rows[static_cast<std::size_t>(r)];
    if (w.dropped) {
      out.stats.nonzeros_removed += static_cast<long long>(w.coef.size());
      continue;
    }
    if (w.coef.empty() && w.removed_entries > 0) {
      if (!empty_row_satisfied(w.sense, w.rhs)) {
        out.infeasible = true;
        out.infeasible_why =
            "row " + std::to_string(r) + " reduces to an unsatisfiable constant constraint";
        return out;
      }
      w.dropped = true;
    }
  }

  // Emit the compacted problem and the index maps.
  out.red_of_var.assign(static_cast<std::size_t>(n), -1);
  out.red_of_row.assign(static_cast<std::size_t>(m), -1);
  for (int j = 0; j < n; ++j) {
    const std::size_t ju = static_cast<std::size_t>(j);
    if (elim[ju]) continue;
    out.red_of_var[ju] = static_cast<int>(out.orig_of_var.size());
    out.orig_of_var.push_back(j);
    out.reduced.add_var(st.lo[ju], st.hi[ju], p.obj(j), p.name(j));
  }
  for (int r = 0; r < m; ++r) {
    const WorkRow& w = st.rows[static_cast<std::size_t>(r)];
    if (w.dropped) {
      ++out.stats.rows_removed;
      continue;
    }
    out.red_of_row[static_cast<std::size_t>(r)] = static_cast<int>(out.orig_of_row.size());
    out.orig_of_row.push_back(r);
    Row row;
    row.sense = w.sense;
    row.rhs = w.rhs;
    row.coef.reserve(w.coef.size());
    for (const auto& [j, a] : w.coef) {
      row.coef.emplace_back(out.red_of_var[static_cast<std::size_t>(j)], a);
    }
    out.reduced.add_row(std::move(row));
  }
  return out;
}

std::vector<double> lift_point(const PresolvedLp& map, const std::vector<double>& xr) {
  std::vector<double> x(map.red_of_var.size(), 0.0);
  for (std::size_t j = 0; j < x.size(); ++j) {
    const int rj = map.red_of_var[j];
    x[j] = rj >= 0 ? xr[static_cast<std::size_t>(rj)] : map.fixed_value[j];
  }
  return x;
}

Certificate trivial_certificate(const Problem& reduced, bool* feasible) {
  Certificate cert;
  *feasible = true;
  for (int r = 0; r < reduced.num_rows(); ++r) {
    const Row& row = reduced.row(r);
    if (!row.coef.empty() || !empty_row_satisfied(row.sense, row.rhs)) {
      *feasible = false;
      cert.status = SolveStatus::kInfeasible;
      return cert;
    }
  }
  cert.status = SolveStatus::kOptimal;
  cert.obj = 0.0;
  cert.y.assign(static_cast<std::size_t>(reduced.num_rows()), 0.0);
  cert.basis.resize(static_cast<std::size_t>(reduced.num_rows()));
  for (int r = 0; r < reduced.num_rows(); ++r) {
    cert.basis[static_cast<std::size_t>(r)] = reduced.num_vars() + r;
  }
  return cert;
}

// ---------------------------------------------------------------------------
// Pass engine: activity-based reductions to a fixpoint.
// ---------------------------------------------------------------------------

namespace {

struct RowActivity {
  double minact = 0.0, maxact = 0.0;
  double absacc = 0.0;  ///< Σ |contribution| — scale input for the margin
  bool min_finite = true, max_finite = true;
  std::size_t len = 0;
};

RowActivity activity(const State& st, const WorkRow& w) {
  RowActivity a;
  a.len = w.coef.size();
  for (const auto& [j, c] : w.coef) {
    const double l = st.lo[static_cast<std::size_t>(j)];
    const double h = st.hi[static_cast<std::size_t>(j)];
    const double at_lo = c * l;
    const double at_hi = c * h;
    const double mn = c > 0.0 ? at_lo : at_hi;
    const double mx = c > 0.0 ? at_hi : at_lo;
    if (std::isfinite(mn)) {
      a.minact += mn;
      a.absacc += std::abs(mn);
    } else {
      a.min_finite = false;
    }
    if (std::isfinite(mx)) {
      a.maxact += mx;
      a.absacc += std::abs(mx);
    } else {
      a.max_finite = false;
    }
  }
  return a;
}

/// Activity margin for a row: float-side claim envelope over the summation.
double row_margin(const RowActivity& a, double rhs) {
  return nd::analysis::presolve_margin(a.len + 8, a.absacc + std::abs(rhs));
}

/// One (sense-directed) propagation attempt on entry (j, c) of row `w` seen
/// as Σ c x ≤ rhs. Emits at most one bound record. Integer variables get
/// rounded bounds; continuous variables are only touched when the implied
/// bound crosses the current box (which proves infeasibility and is caught
/// by the record application).
bool propagate_le(State& st, ReductionLog& log, const RowActivity& act,
                  double rhs, int j, double c, bool is_int) {
  const std::size_t ju = static_cast<std::size_t>(j);
  if (std::abs(c) < coef_floor()) return false;
  const double l = st.lo[ju];
  const double h = st.hi[ju];
  const double margin = row_margin(act, rhs);
  if (c > 0.0) {
    // minact without j's own minimum contribution.
    const double own = c * l;
    if (!act.min_finite || !std::isfinite(own)) return false;
    const double rest = act.minact - own;
    double nb = (rhs - rest) / c + margin / c;
    if (is_int) nb = std::floor(nb);
    if (nb >= h) return false;  // no improvement
    if (!is_int && nb >= l) return false;  // continuous: only infeasibility cuts
    Reduction rc;
    rc.kind = ReductionKind::kTightenHi;
    rc.tag = ReductionTag::kActivity;
    rc.var = j;
    rc.row = -1;  // filled by caller with the row id
    rc.value = nb;
    log.reductions.push_back(rc);
    return true;
  }
  // c < 0: the row's slack bounds x_j from below.
  const double own = c * h;
  if (!act.min_finite || !std::isfinite(own)) return false;
  const double rest = act.minact - own;
  double nb = (rhs - rest) / c - margin / std::abs(c);
  if (is_int) nb = std::ceil(nb);
  if (nb <= l) return false;
  if (!is_int && nb <= h) return false;
  Reduction rc;
  rc.kind = ReductionKind::kTightenLo;
  rc.tag = ReductionTag::kActivity;
  rc.var = j;
  rc.row = -1;
  rc.value = nb;
  log.reductions.push_back(rc);
  return true;
}

/// Savelsbergh coefficient tightening for a binary column in a ≤ row.
/// For c > 0 with slack δ = rhs − maxact_{−j} ∈ (0, c): replacing (c, rhs)
/// by (c − δ, rhs − δ) keeps the x_j = 1 face identical and caps the
/// x_j = 0 face at its box maximum — the integer feasible set is unchanged
/// while the LP relaxation tightens. Requires both float subtractions to be
/// EXACT so the x_j = 1 face provably does not move. For c < 0 the x_j = 1
/// branch is slack: raising c to c + δ' (δ' ≤ min(δ, −c)) tightens it down
/// to the box maximum; only containment is needed, so no exactness demand.
bool tighten_coef_le(State& st, ReductionLog& log, int row_idx, const WorkRow& w,
                     const RowActivity& act, int j, double c) {
  const std::size_t ju = static_cast<std::size_t>(j);
  if (st.pinned[ju]) return false;
  if (!act.max_finite) return false;
  const double rhs = w.rhs;
  const double margin = row_margin(act, rhs);
  if (c > 0.0) {
    const double rest = act.maxact - c;  // maxact without j (binary: hi contribution c·1)
    const double delta = rhs - rest - margin;
    if (!(delta > 0.0) || delta >= c) return false;
    double na = 0.0, nr = 0.0;
    if (!sum_exact(c, -delta, &na) || !sum_exact(rhs, -delta, &nr)) return false;
    if (na < 0.0) return false;
    Reduction rc;
    rc.kind = ReductionKind::kTightenCoef;
    rc.tag = ReductionTag::kActivity;
    rc.row = row_idx;
    rc.var = j;
    rc.coef = na;
    rc.rhs = nr;
    log.reductions.push_back(rc);
    st.apply(rc);
    return true;
  }
  // c < 0: x_j = 1 contributes nothing to maxact (binary at its lower face).
  const double rest = act.maxact;  // j's max contribution is 0
  const double delta = (rhs - c) - rest - margin;
  if (!(delta > 0.0)) return false;
  const double dprime = std::min(delta, -c);
  const double na = c + dprime;
  if (!(na > c) || na > 0.0) return false;
  Reduction rc;
  rc.kind = ReductionKind::kTightenCoef;
  rc.tag = ReductionTag::kActivity;
  rc.row = row_idx;
  rc.var = j;
  rc.coef = na == 0.0 ? 0.0 : na;  // fp-exact: normalise −0
  rc.rhs = rhs;
  log.reductions.push_back(rc);
  st.apply(rc);
  return true;
}

}  // namespace

int presolve_model_passes(const Problem& p, const std::vector<char>& integer,
                          ReductionLog& log) {
  const int n = p.num_vars();
  State st(p);
  for (const Reduction& rc : log.reductions) {
    if (!st.apply(rc)) return 0;  // contradiction: apply_reductions reports it
  }
  auto is_int = [&](int j) {
    return !integer.empty() && integer[static_cast<std::size_t>(j)] != 0;
  };
  auto is_binary = [&](int j) {
    const std::size_t ju = static_cast<std::size_t>(j);
    return is_int(j) && st.lo[ju] == 0.0 && st.hi[ju] == 1.0;  // fp-exact
  };

  // Columns the original problem already pins become explicit records so the
  // compaction step may substitute them out (an empty log stays the
  // identity transform).
  for (int j = 0; j < n; ++j) {
    const std::size_t ju = static_cast<std::size_t>(j);
    if (st.pinned[ju] || st.lo[ju] != st.hi[ju]) continue;  // fp-exact
    Reduction rc;
    rc.kind = ReductionKind::kFixVar;
    rc.tag = ReductionTag::kActivity;
    rc.var = j;
    rc.value = st.lo[ju];
    if (!st.apply(rc)) return 0;
    log.reductions.push_back(rc);
  }

  int round = 0;
  bool changed = true;
  while (changed && round < kMaxRounds && !st.infeasible) {
    changed = false;
    ++round;
    for (int r = 0; r < p.num_rows() && !st.infeasible; ++r) {
      WorkRow& w = st.rows[static_cast<std::size_t>(r)];
      if (w.dropped) continue;
      bool row_changed = true;
      while (row_changed && !w.dropped && !st.infeasible) {
        row_changed = false;
        const RowActivity act = activity(st, w);
        const double margin = row_margin(act, w.rhs);
        // Redundancy: the row can never bind over the current box.
        if (!w.coef.empty()) {
          const bool redundant =
              (w.sense == Sense::LE && act.max_finite && act.maxact + margin <= w.rhs) ||
              (w.sense == Sense::GE && act.min_finite && act.minact - margin >= w.rhs);
          if (redundant) {
            Reduction rc;
            rc.kind = ReductionKind::kDropRow;
            rc.tag = ReductionTag::kActivity;
            rc.row = r;
            if (!st.apply(rc)) break;
            log.reductions.push_back(rc);
            changed = true;
            break;
          }
        }
        // Bound propagation, one record at a time.
        for (const auto& [j, c] : w.coef) {
          bool emitted = false;
          if (w.sense == Sense::LE || w.sense == Sense::EQ) {
            emitted = propagate_le(st, log, act, w.rhs, j, c, is_int(j));
          }
          if (!emitted && (w.sense == Sense::GE || w.sense == Sense::EQ)) {
            // aᵀx ≥ b  ⟺  (−a)ᵀx ≤ −b: reuse the ≤ machinery on the
            // negated entry with negated activities.
            RowActivity neg;
            neg.minact = -act.maxact;
            neg.maxact = -act.minact;
            neg.min_finite = act.max_finite;
            neg.max_finite = act.min_finite;
            neg.absacc = act.absacc;
            neg.len = act.len;
            emitted = propagate_le(st, log, neg, -w.rhs, j, -c, is_int(j));
          }
          if (emitted) {
            Reduction& rc = log.reductions.back();
            rc.row = r;
            if (!st.apply(rc)) {
              row_changed = false;
              break;
            }
            changed = row_changed = true;
            break;  // activities are stale; recompute before continuing
          }
        }
        if (!row_changed && w.sense == Sense::LE) {
          for (const auto& [j, c] : w.coef) {
            if (!is_binary(j)) continue;
            if (tighten_coef_le(st, log, r, w, activity(st, w), j, c)) {
              changed = row_changed = true;
              break;
            }
          }
        }
      }
    }
    // Empty columns: fix at the objective-preferred finite bound.
    if (!st.infeasible) {
      std::vector<char> live(static_cast<std::size_t>(n), 0);
      for (const WorkRow& w : st.rows) {
        if (w.dropped) continue;
        for (const auto& [j, c] : w.coef) {
          (void)c;
          live[static_cast<std::size_t>(j)] = 1;
        }
      }
      for (int j = 0; j < n; ++j) {
        const std::size_t ju = static_cast<std::size_t>(j);
        if (live[ju] || st.pinned[ju]) continue;
        const double c = p.obj(j);
        double v = 0.0;
        if (c > 0.0) {
          if (!std::isfinite(st.lo[ju])) continue;
          v = st.lo[ju];
        } else if (c < 0.0) {
          if (!std::isfinite(st.hi[ju])) continue;
          v = st.hi[ju];
        } else {
          v = std::isfinite(st.lo[ju]) ? st.lo[ju] : st.hi[ju];
        }
        Reduction rc;
        rc.kind = ReductionKind::kFixVar;
        rc.tag = ReductionTag::kEmptyColumn;
        rc.var = j;
        rc.value = v;
        if (!st.apply(rc)) break;
        log.reductions.push_back(rc);
        changed = true;
      }
    }
  }
  return round;
}

// ---------------------------------------------------------------------------
// ReductionReplay: public pimpl over the shared working state.
// ---------------------------------------------------------------------------

struct ReductionReplay::Impl {
  replay_detail::State st;
  explicit Impl(const Problem& p) : st(p) {}
};

ReductionReplay::ReductionReplay(const Problem& p) : impl_(std::make_unique<Impl>(p)) {}
ReductionReplay::ReductionReplay(ReductionReplay&&) noexcept = default;
ReductionReplay& ReductionReplay::operator=(ReductionReplay&&) noexcept = default;
ReductionReplay::~ReductionReplay() = default;

bool ReductionReplay::apply(const Reduction& rc) { return impl_->st.apply(rc); }
bool ReductionReplay::infeasible() const { return impl_->st.infeasible; }
const std::string& ReductionReplay::why() const { return impl_->st.why; }
int ReductionReplay::num_vars() const { return static_cast<int>(impl_->st.lo.size()); }
int ReductionReplay::num_rows() const { return static_cast<int>(impl_->st.rows.size()); }

double ReductionReplay::lo(int j) const {
  ND_REQUIRE(j >= 0 && j < num_vars(), "ReductionReplay::lo: variable out of range");
  return impl_->st.lo[static_cast<std::size_t>(j)];
}

double ReductionReplay::hi(int j) const {
  ND_REQUIRE(j >= 0 && j < num_vars(), "ReductionReplay::hi: variable out of range");
  return impl_->st.hi[static_cast<std::size_t>(j)];
}

bool ReductionReplay::pinned(int j) const {
  ND_REQUIRE(j >= 0 && j < num_vars(), "ReductionReplay::pinned: variable out of range");
  return impl_->st.pinned[static_cast<std::size_t>(j)] != 0;
}

bool ReductionReplay::row_dropped(int r) const {
  ND_REQUIRE(r >= 0 && r < num_rows(), "ReductionReplay::row_dropped: row out of range");
  return impl_->st.rows[static_cast<std::size_t>(r)].dropped;
}

Row ReductionReplay::row(int r) const {
  ND_REQUIRE(r >= 0 && r < num_rows(), "ReductionReplay::row: row out of range");
  const replay_detail::WorkRow& w = impl_->st.rows[static_cast<std::size_t>(r)];
  Row out;
  out.coef = w.coef;
  out.sense = w.sense;
  out.rhs = w.rhs;
  return out;
}

}  // namespace nd::lp
