#include "analysis/certify_lp.hpp"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace nd::analysis {

namespace {

/// Relative feasibility/gap tolerance (scaled per row).
constexpr double kTol = 1e-6;

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string var_name(const lp::Problem& p, int j) {
  const std::string& n = p.name(j);
  return n.empty() ? "x" + std::to_string(j) : n;
}

std::string row_name(int r) { return "row" + std::to_string(r); }

/// w = Aᵀy over the structural columns, compensated per column.
std::vector<double> transpose_product(const lp::Problem& p, const std::vector<double>& y) {
  std::vector<NeumaierSum> acc(static_cast<std::size_t>(p.num_vars()));
  for (int r = 0; r < p.num_rows(); ++r) {
    const double yr = y[static_cast<std::size_t>(r)];
    if (yr == 0.0) continue;  // fp-exact: zero-dual skip, not a tolerance test
    for (const auto& [j, v] : p.row(r).coef) {
      acc[static_cast<std::size_t>(j)].add_product(yr, v);
    }
  }
  std::vector<double> w(acc.size());
  for (std::size_t j = 0; j < acc.size(); ++j) w[j] = acc[j].value();
  return w;
}

class Checker {
 public:
  Checker(const lp::Problem& p, const lp::Certificate& cert) : p_(p), cert_(cert) {}

  Report run() {
    switch (cert_.status) {
      case lp::SolveStatus::kOptimal:
        if (check_optimal_shape()) check_optimal();
        break;
      case lp::SolveStatus::kInfeasible:
        if (check_farkas_shape()) check_farkas();
        break;
      default:
        rep_.add(Severity::kError, codes::kLpCertStatus, "status",
                 std::string("status '") + lp::to_string(cert_.status) +
                     "' carries no certificate to verify");
        break;
    }
    return rep_;
  }

 private:
  [[nodiscard]] bool check_optimal_shape() {
    const auto n = static_cast<std::size_t>(p_.num_vars());
    const auto m = static_cast<std::size_t>(p_.num_rows());
    if (cert_.x.size() != n || cert_.y.size() != m) {
      rep_.add(Severity::kError, codes::kLpCertShape, "certificate",
               "expected x[" + std::to_string(n) + "], y[" + std::to_string(m) +
                   "]; got x[" + std::to_string(cert_.x.size()) + "], y[" +
                   std::to_string(cert_.y.size()) + "]");
      return false;
    }
    return true;
  }

  [[nodiscard]] bool check_farkas_shape() {
    const auto m = static_cast<std::size_t>(p_.num_rows());
    if (cert_.farkas.size() != m) {
      rep_.add(Severity::kError, codes::kLpCertShape, "certificate",
               "expected a Farkas ray over " + std::to_string(m) + " rows; got " +
                   std::to_string(cert_.farkas.size()));
      return false;
    }
    return true;
  }

  /// Row activity aᵀx with a scale for tolerance tests.
  void row_activity(int r, double* activity, double* scale) const {
    const lp::Row& row = p_.row(r);
    NeumaierSum acc;
    double sc = std::abs(row.rhs);
    for (const auto& [j, v] : row.coef) {
      const double term = v * cert_.x[static_cast<std::size_t>(j)];
      acc.add(term);
      sc = std::max(sc, std::abs(term));
    }
    *activity = acc.value();
    *scale = 1.0 + sc;
  }

  void check_primal() {
    for (int j = 0; j < p_.num_vars(); ++j) {
      const double xj = cert_.x[static_cast<std::size_t>(j)];
      const double sc = 1.0 + std::abs(xj);
      if (!std::isfinite(xj)) {
        rep_.add(Severity::kError, codes::kLpCertPrimal, var_name(p_, j),
                 "non-finite primal value");
        continue;
      }
      if (xj < p_.lo(j) - kTol * sc || xj > p_.hi(j) + kTol * sc) {
        rep_.add(Severity::kError, codes::kLpCertPrimal, var_name(p_, j),
                 "value " + fmt(xj) + " outside [" + fmt(p_.lo(j)) + ", " + fmt(p_.hi(j)) +
                     "]");
      }
    }
    for (int r = 0; r < p_.num_rows(); ++r) {
      double act = 0.0, sc = 0.0;
      row_activity(r, &act, &sc);
      const lp::Row& row = p_.row(r);
      const double slack = row.rhs - act;
      const bool bad = (row.sense == lp::Sense::LE && slack < -kTol * sc) ||
                       (row.sense == lp::Sense::GE && slack > kTol * sc) ||
                       (row.sense == lp::Sense::EQ && std::abs(slack) > kTol * sc);
      if (bad) {
        rep_.add(Severity::kError, codes::kLpCertPrimal, row_name(r),
                 "activity " + fmt(act) + " violates rhs " + fmt(row.rhs));
      }
    }
  }

  void check_optimal() {
    check_primal();

    const std::vector<double> w = transpose_product(p_, cert_.y);
    const int n = p_.num_vars();
    const int m = p_.num_rows();
    double yscale = 1.0;
    for (const double yr : cert_.y) yscale = std::max(yscale, std::abs(yr));
    const double ytol = kTol * yscale;

    // Row-dual sign conditions (dual feasibility of the slack columns).
    for (int r = 0; r < m; ++r) {
      const double yr = cert_.y[static_cast<std::size_t>(r)];
      const lp::Sense sense = p_.row(r).sense;
      if ((sense == lp::Sense::LE && yr > ytol) || (sense == lp::Sense::GE && yr < -ytol)) {
        rep_.add(Severity::kError, codes::kLpCertDual, row_name(r),
                 "dual " + fmt(yr) + " has the wrong sign for its row sense");
      }
    }

    // Reduced costs from scratch; sign conditions from the bound structure.
    std::vector<double> d(static_cast<std::size_t>(n));
    double dscale = 1.0;
    for (int j = 0; j < n; ++j) {
      d[static_cast<std::size_t>(j)] = p_.obj(j) - w[static_cast<std::size_t>(j)];
      dscale = std::max(dscale, std::abs(d[static_cast<std::size_t>(j)]));
    }
    const double dtol = kTol * dscale;
    for (int j = 0; j < n; ++j) {
      const double dj = d[static_cast<std::size_t>(j)];
      const bool lo_finite = std::isfinite(p_.lo(j));
      const bool hi_finite = std::isfinite(p_.hi(j));
      if ((!hi_finite && dj < -dtol) || (!lo_finite && dj > dtol)) {
        rep_.add(Severity::kError, codes::kLpCertDual, var_name(p_, j),
                 "reduced cost " + fmt(dj) + " points at an infinite bound");
      }
      if (!cert_.d.empty() && std::abs(cert_.d[static_cast<std::size_t>(j)] - dj) > dtol) {
        rep_.add(Severity::kWarning, codes::kLpCertReducedCost, var_name(p_, j),
                 "claimed reduced cost " + fmt(cert_.d[static_cast<std::size_t>(j)]) +
                     " differs from recomputed " + fmt(dj));
      }
    }

    // Complementary slackness.
    for (int r = 0; r < m; ++r) {
      const double yr = cert_.y[static_cast<std::size_t>(r)];
      const lp::Sense sense = p_.row(r).sense;
      if (sense == lp::Sense::EQ || std::abs(yr) <= ytol) continue;
      double act = 0.0, sc = 0.0;
      row_activity(r, &act, &sc);
      if (std::abs(act - p_.row(r).rhs) > kTol * sc) {
        rep_.add(Severity::kError, codes::kLpCertSlackness, row_name(r),
                 "dual " + fmt(yr) + " on a slack row (activity " + fmt(act) + ", rhs " +
                     fmt(p_.row(r).rhs) + ")");
      }
    }
    for (int j = 0; j < n; ++j) {
      const double dj = d[static_cast<std::size_t>(j)];
      if (std::abs(dj) <= dtol) continue;
      const double xj = cert_.x[static_cast<std::size_t>(j)];
      const double target = dj > 0.0 ? p_.lo(j) : p_.hi(j);
      const double sc = 1.0 + std::abs(target);
      if (!std::isfinite(target) || std::abs(xj - target) > kTol * sc) {
        rep_.add(Severity::kError, codes::kLpCertSlackness, var_name(p_, j),
                 "reduced cost " + fmt(dj) + " but value " + fmt(xj) + " is off the " +
                     (dj > 0.0 ? "lower" : "upper") + " bound " + fmt(target));
      }
    }

    // Strong duality: cᵀx vs yᵀb + Σ_j d_j·(active bound).
    NeumaierSum primal;
    for (int j = 0; j < n; ++j) {
      primal.add_product(p_.obj(j), cert_.x[static_cast<std::size_t>(j)]);
    }
    NeumaierSum dual;
    for (int r = 0; r < m; ++r) {
      dual.add_product(cert_.y[static_cast<std::size_t>(r)], p_.row(r).rhs);
    }
    for (int j = 0; j < n; ++j) {
      const double dj = d[static_cast<std::size_t>(j)];
      if (std::abs(dj) <= dtol) continue;
      const double bound = dj > 0.0 ? p_.lo(j) : p_.hi(j);
      if (std::isfinite(bound)) dual.add_product(dj, bound);
    }
    const double pv = primal.value();
    const double dv = dual.value();
    const double gscale = 1.0 + std::abs(pv) + std::abs(dv);
    if (std::abs(pv - dv) > kTol * gscale) {
      rep_.add(Severity::kError, codes::kLpCertDualityGap, "objective",
               "primal " + fmt(pv) + " vs dual bound " + fmt(dv) + " (gap " +
                   fmt(pv - dv) + ")");
    }
    if (std::abs(cert_.obj - pv) > kTol * (1.0 + std::abs(pv))) {
      rep_.add(Severity::kError, codes::kLpCertObjective, "objective",
               "claimed " + fmt(cert_.obj) + " but cᵀx = " + fmt(pv));
    }
  }

  void check_farkas() {
    const std::vector<double> w = transpose_product(p_, cert_.farkas);
    double yscale = 1.0;
    for (const double yr : cert_.farkas) yscale = std::max(yscale, std::abs(yr));
    const double ytol = kTol * yscale;

    // Box-maximum of Σ_j w_j x_j + Σ_r y_r s_r versus yᵀb. Any term that can
    // run to +inf (a ray component pointing at an open bound) voids the ray.
    NeumaierSum boxmax;
    double scale = 1.0;
    bool unbounded = false;
    for (int j = 0; j < p_.num_vars(); ++j) {
      const double wj = w[static_cast<std::size_t>(j)];
      if (std::abs(wj) <= ytol) continue;
      const double bound = wj > 0.0 ? p_.hi(j) : p_.lo(j);
      if (!std::isfinite(bound)) {
        rep_.add(Severity::kError, codes::kLpCertFarkas, var_name(p_, j),
                 "ray weight " + fmt(wj) + " points at an infinite bound");
        unbounded = true;
        continue;
      }
      boxmax.add_product(wj, bound);
      scale = std::max(scale, std::abs(wj * bound));
    }
    for (int r = 0; r < p_.num_rows(); ++r) {
      const double yr = cert_.farkas[static_cast<std::size_t>(r)];
      if (std::abs(yr) <= ytol) continue;
      // Slack boxes: LE [0, +inf), GE (-inf, 0], EQ [0, 0].
      const lp::Sense sense = p_.row(r).sense;
      if ((sense == lp::Sense::LE && yr > 0.0) || (sense == lp::Sense::GE && yr < 0.0)) {
        rep_.add(Severity::kError, codes::kLpCertFarkas, row_name(r),
                 "ray component " + fmt(yr) + " has the wrong sign for its row sense");
        unbounded = true;
      }
      // In-sign components contribute their box-max of 0.
    }
    if (unbounded) return;
    NeumaierSum ytb;
    for (int r = 0; r < p_.num_rows(); ++r) {
      const double term = cert_.farkas[static_cast<std::size_t>(r)] * p_.row(r).rhs;
      ytb.add(term);
      scale = std::max(scale, std::abs(term));
    }
    const double gap = ytb.value() - boxmax.value();
    if (gap <= kTol * scale) {
      rep_.add(Severity::kError, codes::kLpCertFarkas, "ray",
               "yᵀb − box-max = " + fmt(gap) + " does not prove infeasibility");
    }
  }

  const lp::Problem& p_;
  const lp::Certificate& cert_;
  Report rep_;
};

}  // namespace

Report certify_lp(const lp::Problem& p, const lp::Certificate& cert) {
  return Checker(p, cert).run();
}

}  // namespace nd::analysis
