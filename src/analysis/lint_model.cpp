#include "analysis/lint_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace nd::analysis {

namespace {

constexpr double kHugeCoef = 1e12;   ///< |a| above this is flagged as huge
constexpr double kTinyCoef = 1e-12;  ///< nonzero |a| below this is flagged as tiny
constexpr double kFeasTol = 1e-6;    ///< slack granted before declaring infeasibility

std::string var_name(const RawModel& m, int j) {
  if (j >= 0 && j < static_cast<int>(m.vars.size())) {
    const std::string& n = m.vars[static_cast<std::size_t>(j)].name;
    if (!n.empty()) return n;
  }
  return "x" + std::to_string(j);
}

std::string row_name(int r) { return "row" + std::to_string(r); }

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

const char* sense_str(lp::Sense s) {
  switch (s) {
    case lp::Sense::LE: return "<=";
    case lp::Sense::GE: return ">=";
    case lp::Sense::EQ: return "=";
  }
  return "?";
}

/// Sparse row with duplicate indices summed, zeros dropped, sorted by index.
std::vector<std::pair<int, double>> normalize(const RawRow& row) {
  std::vector<std::pair<int, double>> coef = row.coef;
  std::sort(coef.begin(), coef.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<int, double>> out;
  out.reserve(coef.size());
  for (const auto& [j, v] : coef) {
    if (!out.empty() && out.back().first == j) {
      out.back().second += v;
    } else {
      out.emplace_back(j, v);
    }
  }
  out.erase(std::remove_if(out.begin(), out.end(),
                           [](const auto& jv) { return jv.second == 0.0; }),  // fp-exact
            out.end());
  return out;
}

struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};

/// Contribution interval of term a·x_j given the bounds of x_j.
Interval term_interval(double a, double xlo, double xhi) {
  if (a >= 0.0) return {a * xlo, a * xhi};
  return {a * xhi, a * xlo};
}

void check_variables(const RawModel& m, Report* rep) {
  for (int j = 0; j < static_cast<int>(m.vars.size()); ++j) {
    const RawVar& var = m.vars[static_cast<std::size_t>(j)];
    const std::string name = var_name(m, j);
    if (std::isnan(var.lo) || std::isnan(var.hi)) {
      rep->add(Severity::kError, codes::kNonFiniteCoef, name, "NaN variable bound");
      continue;
    }
    if (var.lo > var.hi) {
      rep->add(Severity::kError, codes::kBoundContradiction, name,
               "lower bound " + fmt(var.lo) + " exceeds upper bound " + fmt(var.hi));
    } else if (var.integer &&
               std::ceil(var.lo - 1e-9) > std::floor(var.hi + 1e-9)) {
      rep->add(Severity::kError, codes::kBoundContradiction, name,
               "integer variable has no integer point in [" + fmt(var.lo) + ", " +
                   fmt(var.hi) + "]");
    }
    if (std::isinf(var.lo) && std::isinf(var.hi)) {
      rep->add(Severity::kError, codes::kFreeVariable, name,
               "both bounds infinite (free variables are not supported)");
    }
    if (!std::isfinite(var.obj)) {
      rep->add(Severity::kError, codes::kNonFiniteCoef, name,
               "objective coefficient is " + fmt(var.obj));
    } else if (std::abs(var.obj) > kHugeCoef) {
      rep->add(Severity::kWarning, codes::kHugeCoef, name,
               "objective coefficient " + fmt(var.obj) + " exceeds " + fmt(kHugeCoef));
    }
  }
}

void check_rows(const RawModel& m, Report* rep) {
  const int n = static_cast<int>(m.vars.size());
  std::map<std::string, int> seen;  // normalized row key -> first row index
  std::vector<char> referenced(static_cast<std::size_t>(n), 0);

  for (int r = 0; r < static_cast<int>(m.rows.size()); ++r) {
    const RawRow& row = m.rows[static_cast<std::size_t>(r)];
    bool usable = true;
    if (!std::isfinite(row.rhs)) {
      rep->add(Severity::kError, codes::kNonFiniteCoef, row_name(r),
               "rhs is " + fmt(row.rhs));
      usable = false;
    }
    for (const auto& [j, v] : row.coef) {
      if (j < 0 || j >= n) {
        rep->add(Severity::kError, codes::kRowBadIndex, row_name(r),
                 "references variable index " + std::to_string(j) + " (model has " +
                     std::to_string(n) + " variables)");
        usable = false;
        continue;
      }
      if (!std::isfinite(v)) {
        rep->add(Severity::kError, codes::kNonFiniteCoef, row_name(r),
                 "coefficient of " + var_name(m, j) + " is " + fmt(v));
        usable = false;
      } else if (std::abs(v) > kHugeCoef) {
        rep->add(Severity::kWarning, codes::kHugeCoef, row_name(r),
                 "coefficient " + fmt(v) + " of " + var_name(m, j) + " exceeds " +
                     fmt(kHugeCoef));
      } else if (v != 0.0 && std::abs(v) < kTinyCoef) {  // fp-exact: exact zeros are fine
        rep->add(Severity::kWarning, codes::kTinyCoef, row_name(r),
                 "coefficient " + fmt(v) + " of " + var_name(m, j) + " is below " +
                     fmt(kTinyCoef));
      }
    }
    if (!usable) continue;

    const auto norm = normalize(row);
    for (const auto& [j, v] : norm) referenced[static_cast<std::size_t>(j)] = 1;

    if (norm.empty()) {
      bool violated = false;
      switch (row.sense) {
        case lp::Sense::LE: violated = row.rhs < -kFeasTol; break;
        case lp::Sense::GE: violated = row.rhs > kFeasTol; break;
        case lp::Sense::EQ: violated = std::abs(row.rhs) > kFeasTol; break;
      }
      rep->add(violated ? Severity::kError : Severity::kWarning, codes::kEmptyRow,
               row_name(r),
               std::string("row has no nonzero coefficients (0 ") + sense_str(row.sense) +
                   " " + fmt(row.rhs) + (violated ? " is false)" : ")"));
      continue;
    }

    std::string key = std::string(sense_str(row.sense)) + "|";
    {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g|", row.rhs);
      key += buf;
      for (const auto& [j, v] : norm) {
        std::snprintf(buf, sizeof(buf), "%d:%.17g,", j, v);
        key += buf;
      }
    }
    const auto [it, inserted] = seen.emplace(std::move(key), r);
    if (!inserted) {
      rep->add(Severity::kWarning, codes::kDuplicateRow, row_name(r),
               "exact duplicate of " + row_name(it->second));
    }
  }

  for (int j = 0; j < n; ++j) {
    const RawVar& var = m.vars[static_cast<std::size_t>(j)];
    if (referenced[static_cast<std::size_t>(j)] != 0) continue;
    if (var.obj != 0.0) continue;  // fp-exact: any nonzero objective keeps the var
    if (var.lo == var.hi) continue;  // presolve-fixed variables are deliberate
    rep->add(Severity::kWarning, codes::kOrphanVariable, var_name(m, j),
             "appears in no constraint and has zero objective coefficient");
  }
}

/// Row-activity infeasibility plus one round of interval propagation.
void check_intervals(const RawModel& m, Report* rep) {
  const int n = static_cast<int>(m.vars.size());
  std::vector<double> tlo(static_cast<std::size_t>(n));
  std::vector<double> thi(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    tlo[static_cast<std::size_t>(j)] = m.vars[static_cast<std::size_t>(j)].lo;
    thi[static_cast<std::size_t>(j)] = m.vars[static_cast<std::size_t>(j)].hi;
  }

  for (int r = 0; r < static_cast<int>(m.rows.size()); ++r) {
    const RawRow& row = m.rows[static_cast<std::size_t>(r)];
    if (!std::isfinite(row.rhs)) continue;
    if (std::any_of(row.coef.begin(), row.coef.end(),
                    [n](const auto& jv) { return jv.first < 0 || jv.first >= n; })) {
      continue;  // already reported by check_rows
    }
    const auto norm = normalize(row);
    if (norm.empty()) continue;
    bool bad_input = false;
    Interval act{0.0, 0.0};
    for (const auto& [j, v] : norm) {
      const RawVar& var = m.vars[static_cast<std::size_t>(j)];
      if (!std::isfinite(v) || std::isnan(var.lo) || std::isnan(var.hi) ||
          var.lo > var.hi) {
        bad_input = true;  // already reported by the variable/row checks
        break;
      }
      const Interval t = term_interval(v, var.lo, var.hi);
      act.lo += t.lo;
      act.hi += t.hi;
    }
    if (bad_input) continue;

    const double scale = std::max({1.0, std::abs(row.rhs),
                                   std::isfinite(act.lo) ? std::abs(act.lo) : 0.0,
                                   std::isfinite(act.hi) ? std::abs(act.hi) : 0.0});
    const double slack = kFeasTol * scale;
    const bool le_side = row.sense != lp::Sense::GE;  // LE or EQ
    const bool ge_side = row.sense != lp::Sense::LE;  // GE or EQ
    if (le_side && act.lo > row.rhs + slack) {
      rep->add(Severity::kError, codes::kRowInfeasible, row_name(r),
               "minimum activity " + fmt(act.lo) + " already exceeds rhs " +
                   fmt(row.rhs));
      continue;
    }
    if (ge_side && act.hi < row.rhs - slack) {
      rep->add(Severity::kError, codes::kRowInfeasible, row_name(r),
               "maximum activity " + fmt(act.hi) + " cannot reach rhs " + fmt(row.rhs));
      continue;
    }

    // One propagation round: bounds implied for each variable by this row.
    for (const auto& [j, v] : norm) {
      const auto ju = static_cast<std::size_t>(j);
      const RawVar& var = m.vars[ju];
      const Interval t = term_interval(v, var.lo, var.hi);
      if (le_side && std::isfinite(act.lo - t.lo)) {
        const double residual = row.rhs - (act.lo - t.lo);  // budget for a·x_j
        if (v > 0.0) {
          thi[ju] = std::min(thi[ju], residual / v);
        } else {
          tlo[ju] = std::max(tlo[ju], residual / v);
        }
      }
      if (ge_side && std::isfinite(act.hi - t.hi)) {
        const double residual = row.rhs - (act.hi - t.hi);
        if (v > 0.0) {
          tlo[ju] = std::max(tlo[ju], residual / v);
        } else {
          thi[ju] = std::min(thi[ju], residual / v);
        }
      }
    }
  }

  for (int j = 0; j < n; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    const RawVar& var = m.vars[ju];
    if (std::isnan(var.lo) || std::isnan(var.hi) || var.lo > var.hi) continue;
    const double scale =
        std::max({1.0, std::isfinite(tlo[ju]) ? std::abs(tlo[ju]) : 0.0,
                  std::isfinite(thi[ju]) ? std::abs(thi[ju]) : 0.0});
    if (tlo[ju] > thi[ju] + kFeasTol * scale) {
      rep->add(Severity::kError, codes::kPropagationInfeasible, var_name(m, j),
               "implied bounds [" + fmt(tlo[ju]) + ", " + fmt(thi[ju]) +
                   "] are contradictory after one propagation round");
    }
  }
}

/// Copy a validated lp::Problem into the raw description, marking integers
/// via `is_integer` (null for a bare LP).
RawModel to_raw(const lp::Problem& p, const milp::Model* mip) {
  RawModel raw;
  raw.vars.reserve(static_cast<std::size_t>(p.num_vars()));
  for (int j = 0; j < p.num_vars(); ++j) {
    raw.vars.push_back({p.lo(j), p.hi(j), p.obj(j),
                        mip != nullptr && mip->is_integer(j), p.name(j)});
  }
  raw.rows.reserve(static_cast<std::size_t>(p.num_rows()));
  for (int r = 0; r < p.num_rows(); ++r) {
    const lp::Row& row = p.row(r);
    raw.rows.push_back({row.coef, row.sense, row.rhs});
  }
  return raw;
}

}  // namespace

Report lint_raw_model(const RawModel& m) {
  Report rep;
  check_variables(m, &rep);
  check_rows(m, &rep);
  check_intervals(m, &rep);
  return rep;
}

Report lint_lp(const lp::Problem& p) { return lint_raw_model(to_raw(p, nullptr)); }

Report lint_model(const milp::Model& m) { return lint_raw_model(to_raw(m.lp(), &m)); }

}  // namespace nd::analysis
