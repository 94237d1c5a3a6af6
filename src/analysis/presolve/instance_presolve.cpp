#include "analysis/presolve/instance_presolve.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/invariants.hpp"
#include "noc/mesh.hpp"
#include "task/duplication.hpp"
#include "task/task_graph.hpp"

namespace nd::analysis {
namespace {

using lp::Reduction;
using lp::ReductionKind;
using lp::ReductionReplay;
using lp::ReductionTag;
using model::Formulation;

// ---------------------------------------------------------------------------
// Record decoding: map a model variable index back to its (task, level) /
// (task, proc) / (pair) identity through the formulation's accessors. Linear
// scans — the tables are tiny next to the model itself.
// ---------------------------------------------------------------------------

bool find_y(const Formulation& f, int var, int* task, int* level) {
  for (int i = 0; i < f.num_total_tasks(); ++i) {
    for (int l = 0; l < f.num_levels(); ++l) {
      if (f.var_y(i, l) == var) {
        *task = i;
        *level = l;
        return true;
      }
    }
  }
  return false;
}

bool find_x(const Formulation& f, int var, int* task, int* proc) {
  for (int i = 0; i < f.num_total_tasks(); ++i) {
    for (int k = 0; k < f.num_procs(); ++k) {
      if (f.var_x(i, k) == var) {
        *task = i;
        *proc = k;
        return true;
      }
    }
  }
  return false;
}

bool find_z(const Formulation& f, int var, int* i_out, int* j_out) {
  if (var < 0) return false;
  for (int i = 0; i < f.num_total_tasks(); ++i) {
    for (int j = i + 1; j < f.num_total_tasks(); ++j) {
      if (f.var_z(i, j) == var) {
        *i_out = i;
        *j_out = j;
        return true;
      }
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Symmetry maps. A map entry says what value the image variable takes when a
// feasible point is pushed through the symmetry:
//   kCopy : v[dst] := v[src]
//   kFlip : v[dst] := 1 − v[src]          (binary orientation flip)
//   kDiff : v[dst] := v[srcA] − v[srcB]   (qG under a path swap: qG' = G − qG)
// Validity of the whole map against the CURRENT replay state needs only two
// checks (docs/presolve.md has the argument):
//   (a) the image of every ORIGINAL box lands inside the image variable's
//       original box (bound tightenings derived later are implied over the
//       current feasible set and hold automatically for the mapped point);
//   (b) every column some RECORD pinned must receive exactly its pinned
//       value, which requires the source box to be a matching point.
// Objective preservation is checked per entry on the model's objective
// vector, so a map never trades feasibility for a worse objective.
// ---------------------------------------------------------------------------

enum class MapKind { kCopy, kFlip, kDiff };

struct MapEntry {
  MapKind kind = MapKind::kCopy;
  int dst = -1;
  int src = -1;   ///< kCopy / kFlip; kDiff: the minuend (G)
  int src2 = -1;  ///< kDiff only: the subtrahend (qG)
};

std::string var_label(const lp::Problem& p, int j) {
  const std::string& n = p.name(j);
  return n.empty() ? "x" + std::to_string(j) : n;
}

std::string map_compatible(const Formulation& f, const ReductionReplay& st,
                           const std::vector<MapEntry>& map) {
  const lp::Problem& p = f.model().lp();
  for (const MapEntry& e : map) {
    if (e.dst < 0 || e.src < 0 || (e.kind == MapKind::kDiff && e.src2 < 0)) {
      return "symmetry map references a variable the model does not have";
    }
    if (e.kind == MapKind::kCopy && e.dst == e.src) continue;
    // (a) original-box containment of the mapped box.
    double img_lo = 0.0, img_hi = 0.0;
    switch (e.kind) {
      case MapKind::kCopy:
        img_lo = p.lo(e.src);
        img_hi = p.hi(e.src);
        if (p.obj(e.dst) != p.obj(e.src)) {  // fp-exact: same written constant
          return "objective coefficient of " + var_label(p, e.dst) +
                 " differs from its symmetry source";
        }
        break;
      case MapKind::kFlip:
        img_lo = 1.0 - p.hi(e.src);
        img_hi = 1.0 - p.lo(e.src);
        if (p.obj(e.dst) != 0.0 || p.obj(e.src) != 0.0) {  // fp-exact
          return "orientation-flipped variable " + var_label(p, e.dst) +
                 " carries an objective coefficient";
        }
        break;
      case MapKind::kDiff: {
        // qG' = G − qG. The row system (qG ≤ G, qG ≥ G − cap·(1−c)) keeps
        // the difference inside [0, cap]; at the box level we require the
        // shared [0, cap] shape so the containment below is meaningful.
        if (p.lo(e.src) != 0.0 || p.lo(e.src2) != 0.0 ||  // fp-exact: written constants
            p.hi(e.src) != p.hi(e.src2)) {  // fp-exact: formulation constants
          return "path-swap image of " + var_label(p, e.dst) +
                 " needs matching [0, cap] boxes on its G/qG sources";
        }
        img_lo = p.lo(e.src);
        img_hi = p.hi(e.src);
        // Objective algebra of the swap (see docs/presolve.md):
        //   obj(qG') == −obj(qG),  obj(G') + obj(qG') == obj(G)
        // is checked by the caller on the paired G entry; here the local
        // half: the destination's coefficient must negate the source's.
        if (p.obj(e.dst) != -p.obj(e.src2) &&                   // fp-exact: written constants
            !(p.obj(e.dst) == 0.0 && p.obj(e.src2) == 0.0)) {    // fp-exact: same
          return "path-swap objective algebra fails at " + var_label(p, e.dst);
        }
        break;
      }
    }
    if (img_lo < p.lo(e.dst) || img_hi > p.hi(e.dst)) {
      return "mapped box of " + var_label(p, e.src) + " escapes the box of " +
             var_label(p, e.dst);
    }
    // (b) record-pinned images must be hit exactly.
    if (st.pinned(e.dst)) {
      double v = 0.0;
      switch (e.kind) {
        case MapKind::kCopy:
          if (st.lo(e.src) != st.hi(e.src)) {  // fp-exact: point box required
            return "record-fixed " + var_label(p, e.dst) +
                   " receives an undetermined value from " + var_label(p, e.src);
          }
          v = st.lo(e.src);
          break;
        case MapKind::kFlip:
          if (st.lo(e.src) != st.hi(e.src)) {  // fp-exact
            return "record-fixed " + var_label(p, e.dst) +
                   " receives an undetermined value from " + var_label(p, e.src);
          }
          v = 1.0 - st.lo(e.src);
          break;
        case MapKind::kDiff:
          if (st.lo(e.src) != st.hi(e.src) || st.lo(e.src2) != st.hi(e.src2)) {  // fp-exact
            return "record-fixed " + var_label(p, e.dst) +
                   " receives an undetermined path-swap value";
          }
          v = st.lo(e.src) - st.lo(e.src2);
          break;
      }
      if (v != st.lo(e.dst)) {  // fp-exact: pinned values are written constants
        return "symmetry image of " + var_label(p, e.src) + " violates the fixed value of " +
               var_label(p, e.dst);
      }
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// Twin map: exchange original tasks i ↔ j (and their duplicates i+M ↔ j+M).
// ---------------------------------------------------------------------------

/// Signature of a duplicated-graph edge under a task relabeling.
using EdgeSig = std::tuple<int, int, double, std::vector<int>>;

EdgeSig edge_signature(const task::DupEdge& e, const std::vector<int>& relabel) {
  std::vector<int> gates;
  gates.reserve(e.gates.size());
  for (const int g : e.gates) gates.push_back(relabel[static_cast<std::size_t>(g)]);
  std::sort(gates.begin(), gates.end());
  return {relabel[static_cast<std::size_t>(e.from)], relabel[static_cast<std::size_t>(e.to)],
          e.bytes, std::move(gates)};
}

/// Identity relabeling with i↔j and i+M↔j+M swapped.
std::vector<int> twin_relabel(const Formulation& f, int i, int j) {
  std::vector<int> r(static_cast<std::size_t>(f.num_total_tasks()));
  for (int t = 0; t < f.num_total_tasks(); ++t) r[static_cast<std::size_t>(t)] = t;
  const int m = f.num_tasks();
  std::swap(r[static_cast<std::size_t>(i)], r[static_cast<std::size_t>(j)]);
  std::swap(r[static_cast<std::size_t>(i + m)], r[static_cast<std::size_t>(j + m)]);
  return r;
}

/// Match every duplicated edge to the edge its relabeled signature names.
/// Returns the bijection e → e' or an empty vector when the edge multiset is
/// not invariant (then i and j are not twins).
std::vector<int> edge_bijection(const Formulation& f, const std::vector<int>& relabel) {
  const auto& edges = f.problem().dup().edges();
  const int ne = static_cast<int>(edges.size());
  std::vector<std::pair<EdgeSig, int>> plain(static_cast<std::size_t>(ne));
  std::vector<int> ident(static_cast<std::size_t>(f.num_total_tasks()));
  for (int t = 0; t < f.num_total_tasks(); ++t) ident[static_cast<std::size_t>(t)] = t;
  for (int e = 0; e < ne; ++e) {
    plain[static_cast<std::size_t>(e)] = {
        edge_signature(edges[static_cast<std::size_t>(e)], ident), e};
  }
  std::sort(plain.begin(), plain.end());
  std::vector<std::pair<EdgeSig, int>> mapped(static_cast<std::size_t>(ne));
  for (int e = 0; e < ne; ++e) {
    mapped[static_cast<std::size_t>(e)] = {
        edge_signature(edges[static_cast<std::size_t>(e)], relabel), e};
  }
  std::sort(mapped.begin(), mapped.end());
  std::vector<int> bij(static_cast<std::size_t>(ne), -1);
  for (int s = 0; s < ne; ++s) {
    if (mapped[static_cast<std::size_t>(s)].first != plain[static_cast<std::size_t>(s)].first) {
      return {};  // multiset differs: no bijection
    }
    // Edge mapped[s].second relabels onto the slot plain[s].second occupies.
    bij[static_cast<std::size_t>(mapped[static_cast<std::size_t>(s)].second)] =
        plain[static_cast<std::size_t>(s)].second;
  }
  return bij;
}

/// z-pair entry with the orientation bookkeeping: pair {a,t} maps to
/// {b,tt} where b and tt are the RELABELED endpoints (the pair's own binary
/// lands on itself with t = b, tt = a, which flips it: the exchange reverses
/// who runs first). The stored binary is always "lower index runs first", so
/// the orientation flips exactly when the relabeling crosses the partner.
void push_z_entry(const Formulation& f, int a, int b, int t, int tt,
                  std::vector<MapEntry>* map, bool* ok) {
  const int src = f.var_z(std::min(a, t), std::max(a, t));
  const int dst = f.var_z(std::min(b, tt), std::max(b, tt));
  if ((src < 0) != (dst < 0)) {
    *ok = false;  // one pair is precedence-ordered, the other is not
    return;
  }
  if (src < 0) return;
  const bool src_first = a < t;   // src binary means "a runs first"
  const bool dst_first = b < tt;  // dst binary means "b runs first"
  map->push_back({src_first == dst_first ? MapKind::kCopy : MapKind::kFlip, dst, src, -1});
}

/// Build the full variable map of the twin exchange i ↔ j. Returns false
/// when the exchange is not even structurally expressible (edge multisets
/// differ, z-variable existence differs, flow-block existence differs).
bool build_twin_map(const Formulation& f, int i, int j, std::vector<MapEntry>* map,
                    std::string* why) {
  const int m = f.num_tasks();
  const int n = f.num_procs();
  const int nl = f.num_levels();
  const std::vector<int> relabel = twin_relabel(f, i, j);
  const std::vector<int> bij = edge_bijection(f, relabel);
  if (bij.empty() && f.num_edges() > 0) {
    *why = "duplicated-graph edge multiset is not invariant under the exchange";
    return false;
  }
  map->clear();
  const int pair[2][2] = {{i, j}, {i + m, j + m}};
  for (const auto& pr : pair) {
    for (int dir = 0; dir < 2; ++dir) {
      const int a = pr[dir], b = pr[1 - dir];
      for (int l = 0; l < nl; ++l) {
        map->push_back({MapKind::kCopy, f.var_y(b, l), f.var_y(a, l), -1});
      }
      for (int k = 0; k < n; ++k) {
        map->push_back({MapKind::kCopy, f.var_x(b, k), f.var_x(a, k), -1});
        map->push_back({MapKind::kCopy, f.var_ec(b, k), f.var_ec(a, k), -1});
      }
      map->push_back({MapKind::kCopy, f.var_ts(b), f.var_ts(a), -1});
      map->push_back({MapKind::kCopy, f.var_te(b), f.var_te(a), -1});
      const int tca = f.var_tc(a), tcb = f.var_tc(b);
      if ((tca < 0) != (tcb < 0)) {
        *why = "inbound-flow variables exist for only one task of the pair";
        return false;
      }
      if (tca >= 0) map->push_back({MapKind::kCopy, tcb, tca, -1});
      for (int b2 = 0; b2 < n; ++b2) {
        for (int g2 = 0; g2 < n; ++g2) {
          const int ga = f.var_gflow(a, b2, g2), gb = f.var_gflow(b, b2, g2);
          if ((ga < 0) != (gb < 0)) {
            *why = "flow blocks exist for only one task of the pair";
            return false;
          }
          if (ga >= 0) {
            map->push_back({MapKind::kCopy, gb, ga, -1});
            map->push_back({MapKind::kCopy, f.var_qgflow(b, b2, g2), f.var_qgflow(a, b2, g2), -1});
          }
        }
      }
    }
  }
  map->push_back({MapKind::kCopy, f.var_h(j + m), f.var_h(i + m), -1});
  map->push_back({MapKind::kCopy, f.var_h(i + m), f.var_h(j + m), -1});
  // Ordering binaries against every third party, plus the pair's own binary
  // (which flips onto itself: the exchange reverses who runs first).
  bool ok = true;
  for (const int a : {i, j, i + m, j + m}) {
    const int b = relabel[static_cast<std::size_t>(a)];
    for (int t = 0; t < f.num_total_tasks() && ok; ++t) {
      if (t == a) continue;
      const int tt = relabel[static_cast<std::size_t>(t)];
      push_z_entry(f, a, b, t, tt, map, &ok);
    }
  }
  if (!ok) {
    *why = "ordering-binary existence is not invariant under the exchange";
    return false;
  }
  // Edge-indexed blocks through the bijection.
  for (int e = 0; e < f.num_edges(); ++e) {
    const int ep = bij.empty() ? e : bij[static_cast<std::size_t>(e)];
    const int gpa = f.var_gprod(e), gpb = f.var_gprod(ep);
    if ((gpa < 0) != (gpb < 0)) {
      *why = "gate-product variables exist for only one edge of a mapped pair";
      return false;
    }
    if (gpa >= 0) map->push_back({MapKind::kCopy, gpb, gpa, -1});
    if (e == ep) continue;
    for (int b2 = 0; b2 < n; ++b2) {
      for (int g2 = 0; g2 < n; ++g2) {
        map->push_back({MapKind::kCopy, f.var_a(ep, b2, g2), f.var_a(e, b2, g2), -1});
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Mesh-automorphism map: processors relabel, tasks stay.
// ---------------------------------------------------------------------------

void build_mesh_map(const Formulation& f, const MeshAutomorphism& aut,
                    std::vector<MapEntry>* map) {
  const int n = f.num_procs();
  map->clear();
  auto pk = [&](int k) { return aut.perm[static_cast<std::size_t>(k)]; };
  for (int i = 0; i < f.num_total_tasks(); ++i) {
    for (int k = 0; k < n; ++k) {
      map->push_back({MapKind::kCopy, f.var_x(i, pk(k)), f.var_x(i, k), -1});
      map->push_back({MapKind::kCopy, f.var_ec(i, pk(k)), f.var_ec(i, k), -1});
    }
    for (int b = 0; b < n; ++b) {
      for (int g = 0; g < n; ++g) {
        const int gv = f.var_gflow(i, b, g);
        if (gv < 0) continue;
        const int gd = f.var_gflow(i, pk(b), pk(g));
        const int qv = f.var_qgflow(i, b, g);
        const int qd = f.var_qgflow(i, pk(b), pk(g));
        map->push_back({MapKind::kCopy, gd, gv, -1});
        if (aut.path_swap) {
          map->push_back({MapKind::kDiff, qd, gv, qv});  // qG' = G − qG
        } else {
          map->push_back({MapKind::kCopy, qd, qv, -1});
        }
      }
    }
  }
  for (int b = 0; b < n; ++b) {
    for (int g = 0; g < n; ++g) {
      if (b == g) continue;
      const int c = f.var_cpath(b, g);
      const int cd = f.var_cpath(pk(b), pk(g));
      map->push_back({aut.path_swap ? MapKind::kFlip : MapKind::kCopy, cd, c, -1});
    }
  }
  for (int e = 0; e < f.num_edges(); ++e) {
    for (int b = 0; b < n; ++b) {
      for (int g = 0; g < n; ++g) {
        map->push_back({MapKind::kCopy, f.var_a(e, pk(b), pk(g)), f.var_a(e, b, g), -1});
      }
    }
  }
}

/// Extra objective condition of the path-swap algebra that map_compatible
/// can only check half of locally: obj(G') + obj(qG') == obj(G).
std::string swap_objective_ok(const Formulation& f, const MeshAutomorphism& aut) {
  if (!aut.path_swap) return {};
  const lp::Problem& p = f.model().lp();
  const int n = f.num_procs();
  for (int i = 0; i < f.num_total_tasks(); ++i) {
    for (int b = 0; b < n; ++b) {
      for (int g = 0; g < n; ++g) {
        const int gv = f.var_gflow(i, b, g);
        if (gv < 0) continue;
        const int gd = f.var_gflow(i, aut.perm[static_cast<std::size_t>(b)],
                                   aut.perm[static_cast<std::size_t>(g)]);
        const int qd = f.var_qgflow(i, aut.perm[static_cast<std::size_t>(b)],
                                    aut.perm[static_cast<std::size_t>(g)]);
        if (p.obj(gd) + p.obj(qd) != p.obj(gv)) {  // fp-exact: e1 + (e0−e1) = e0
          return "path-swap objective algebra fails on a flow block";
        }
      }
    }
  }
  return {};
}

}  // namespace

// ---------------------------------------------------------------------------
// Mesh automorphisms.
// ---------------------------------------------------------------------------

namespace {

/// Coordinate maps of the dihedral candidates on an R×C grid.
std::vector<std::vector<int>> dihedral_candidates(const noc::Mesh& mesh) {
  const int rows = mesh.rows(), cols = mesh.cols();
  std::vector<std::vector<int>> out;
  auto add = [&](auto&& coord_map, bool transposed) {
    std::vector<int> perm(static_cast<std::size_t>(rows * cols));
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        const auto [rr, cc] = coord_map(r, c);
        // Transposed maps land on a C×R grid, which is the same node-id
        // space only when the mesh is square.
        (void)transposed;
        perm[static_cast<std::size_t>(mesh.node_id(r, c))] = mesh.node_id(rr, cc);
      }
    }
    out.push_back(std::move(perm));
  };
  add([&](int r, int c) { return std::pair{rows - 1 - r, cols - 1 - c}; }, false);  // rot180
  add([&](int r, int c) { return std::pair{r, cols - 1 - c}; }, false);            // flip cols
  add([&](int r, int c) { return std::pair{rows - 1 - r, c}; }, false);            // flip rows
  if (rows == cols) {
    add([&](int r, int c) { return std::pair{c, r}; }, true);                      // transpose
    add([&](int r, int c) { return std::pair{cols - 1 - c, rows - 1 - r}; }, true);// anti-transp.
    add([&](int r, int c) { return std::pair{c, rows - 1 - r}; }, true);           // rot90
    add([&](int r, int c) { return std::pair{cols - 1 - c, r}; }, true);           // rot270
  }
  return out;
}

bool tensors_invariant(const noc::Mesh& mesh, const std::vector<int>& perm, bool swap) {
  const int n = mesh.num_procs();
  for (int b = 0; b < n; ++b) {
    for (int g = 0; g < n; ++g) {
      if (b == g) continue;
      const int pb = perm[static_cast<std::size_t>(b)], pg = perm[static_cast<std::size_t>(g)];
      for (int rho = 0; rho < noc::Mesh::kNumPaths; ++rho) {
        const int prho = swap ? 1 - rho : rho;
        if (mesh.time_per_byte(b, g, rho) != mesh.time_per_byte(pb, pg, prho)) {  // fp-exact
          return false;
        }
        for (int k = 0; k < n; ++k) {
          const int pkk = perm[static_cast<std::size_t>(k)];
          if (mesh.energy_per_byte(b, g, k, rho) !=
              mesh.energy_per_byte(pb, pg, pkk, prho)) {  // fp-exact
            return false;
          }
        }
      }
    }
  }
  return true;
}

}  // namespace

std::vector<MeshAutomorphism> mesh_automorphisms(const model::Formulation& f) {
  const noc::Mesh& mesh = f.problem().mesh();
  const int n = mesh.num_procs();
  std::vector<MeshAutomorphism> out;
  MeshAutomorphism ident;
  ident.perm.resize(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) ident.perm[static_cast<std::size_t>(k)] = k;
  out.push_back(ident);
  auto have = [&](const std::vector<int>& perm, bool swap) {
    for (const MeshAutomorphism& a : out) {
      if (a.path_swap == swap && a.perm == perm) return true;
    }
    return false;
  };
  for (const std::vector<int>& perm : dihedral_candidates(mesh)) {
    for (const bool swap : {false, true}) {
      if (have(perm, swap)) continue;
      if (tensors_invariant(mesh, perm, swap)) out.push_back({perm, swap});
    }
  }
  // Close under composition (exact equalities compose, so products are
  // automorphisms too; the dihedral group has at most 16 swap-annotated
  // elements, so the fixpoint loop is tiny).
  bool grew = true;
  while (grew) {
    grew = false;
    const std::size_t sz = out.size();
    for (std::size_t a = 0; a < sz; ++a) {
      for (std::size_t b = 0; b < sz; ++b) {
        std::vector<int> comp(static_cast<std::size_t>(n));
        for (int k = 0; k < n; ++k) {
          comp[static_cast<std::size_t>(k)] =
              out[a].perm[static_cast<std::size_t>(out[b].perm[static_cast<std::size_t>(k)])];
        }
        const bool swap = out[a].path_swap != out[b].path_swap;
        if (!have(comp, swap)) {
          out.push_back({std::move(comp), swap});
          grew = true;
        }
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The shared per-record predicate.
// ---------------------------------------------------------------------------

namespace {

std::string check_dominance(const Formulation& f, const ReductionReplay& st,
                            const Reduction& rc) {
  int task = -1, l_dom = -1, wtask = -1, l_wit = -1;
  if (!find_y(f, rc.var, &task, &l_dom)) {
    return "dominance record does not target a level binary y(i,l)";
  }
  if (!find_y(f, rc.aux, &wtask, &l_wit)) {
    return "dominance witness is not a level binary y(i,l)";
  }
  if (wtask != task || l_wit == l_dom) {
    return "dominance witness must be a DIFFERENT level of the SAME task";
  }
  if (rc.value != 0.0) {  // fp-exact: dominance always fixes to 0
    return "dominance records must fix the dominated level to 0";
  }
  if (st.hi(rc.aux) != 1.0) {  // fp-exact
    return "witness level y(" + std::to_string(task) + "," + std::to_string(l_wit) +
           ") is not available in the current state";
  }
  // Weak dominance on the exact model tables: the level swap l_dom → l_wit
  // must not lengthen execution, raise energy, or lower reliability.
  const double t_w = f.wcec_time(task, l_wit), t_d = f.wcec_time(task, l_dom);
  const double e_w = f.wcec_energy(task, l_wit), e_d = f.wcec_energy(task, l_dom);
  const double r_w = f.reliability(task, l_wit), r_d = f.reliability(task, l_dom);
  if (t_w > t_d) return "witness level is slower than the dominated level";
  if (e_w > e_d) return "witness level burns more energy than the dominated level";
  if (r_w < r_d) return "witness level is less reliable than the dominated level";
  const lp::Problem& p = f.model().lp();
  if (p.obj(rc.aux) > p.obj(rc.var)) {
    return "witness level has a worse objective coefficient";
  }
  // The swap rewrites te = ts + Σ C/f·y through its defining equality; a
  // record-pinned te cannot absorb that unless the times are equal.
  if (st.pinned(f.var_te(task)) && t_w != t_d) {  // fp-exact
    return "end-time of the task was fixed by an earlier record; the swap would move it";
  }
  const double r_th = f.problem().r_th();
  if (task < f.num_tasks()) {
    // Original task: row (4b) r_i + rmax·h ≤ rmax + R_th − σ must survive
    // the reliability increase when the duplicate exists (h = 1). Feasible
    // h = 1 states have r(l_dom) ≤ R_th − σ; we need the same for l_wit —
    // or that h = 1 was impossible to begin with.
    const double sigma = f.reliability_sigma();
    if (!(r_w <= r_th - sigma) && !(r_d > r_th - sigma)) {
      return "swap crosses the Lemma 2.1 margin: row (4b) could be violated with h = 1";
    }
    // Conflict cuts (5): every cut naming the witness level must already
    // exist for the dominated level, else the swap can activate a cut.
    for (int ld = 0; ld < f.num_levels(); ++ld) {
      if (f.conflict_cut(task, l_wit, ld) && !f.conflict_cut(task, l_dom, ld)) {
        return "conflict cut y(i," + std::to_string(l_wit) + ")+y(d," + std::to_string(ld) +
               ") ≤ 1 has no counterpart for the dominated level";
      }
    }
  } else {
    // Duplicate task: only the conflict cuts reference its levels.
    const int orig = task - f.num_tasks();
    for (int l = 0; l < f.num_levels(); ++l) {
      if (f.conflict_cut(orig, l, l_wit) && !f.conflict_cut(orig, l, l_dom)) {
        return "conflict cut y(i," + std::to_string(l) + ")+y(d," + std::to_string(l_wit) +
               ") ≤ 1 has no counterpart for the dominated level";
      }
    }
  }
  return {};
}

std::string check_twin(const Formulation& f, const ReductionReplay& st, const Reduction& rc) {
  int i = -1, j = -1;
  if (!find_z(f, rc.var, &i, &j)) {
    return "twin record does not target an ordering binary z(i,j)";
  }
  if (j >= f.num_tasks()) {
    return "twin records must pair two ORIGINAL tasks";
  }
  if (rc.value != 1.0) {  // fp-exact: index order runs first, by convention
    return "twin records must fix z(i,j) to 1 (index order runs first)";
  }
  if (st.hi(rc.var) != 1.0) {  // fp-exact
    return "z(" + std::to_string(i) + "," + std::to_string(j) + ") is no longer free";
  }
  // Exactly equal model tables for the pair and for their duplicates.
  const int m = f.num_tasks();
  for (const int off : {0, m}) {
    for (int l = 0; l < f.num_levels(); ++l) {
      if (f.wcec_time(i + off, l) != f.wcec_time(j + off, l) ||       // fp-exact
          f.wcec_energy(i + off, l) != f.wcec_energy(j + off, l) ||   // fp-exact
          f.reliability(i + off, l) != f.reliability(j + off, l)) {   // fp-exact
        return "per-level tables of the pair differ";
      }
    }
  }
  if (f.problem().dup().deadline(i) != f.problem().dup().deadline(j)) {  // fp-exact
    return "deadlines of the pair differ";
  }
  std::vector<MapEntry> map;
  std::string why;
  if (!build_twin_map(f, i, j, &map, &why)) return why;
  why = map_compatible(f, st, map);
  if (!why.empty()) return why;
  return {};
}

std::string check_orbit(const Formulation& f, const ReductionReplay& st, const Reduction& rc) {
  int task = -1, k = -1, rtask = -1, rep = -1;
  if (!find_x(f, rc.var, &task, &k)) {
    return "orbit record does not target a placement binary x(i,k)";
  }
  if (!find_x(f, rc.aux, &rtask, &rep)) {
    return "orbit representative is not a placement binary x(i,k)";
  }
  if (task != 0 || rtask != 0) {
    return "orbit fixing is anchored on task 0 only";
  }
  if (rep == k) return "orbit representative equals the fixed processor";
  if (rc.value != 0.0) {  // fp-exact
    return "orbit records must fix the non-representative host to 0";
  }
  if (st.hi(rc.aux) != 1.0) {  // fp-exact
    return "representative host x(0," + std::to_string(rep) + ") is not available";
  }
  // Find a verified automorphism carrying k onto the representative whose
  // induced variable map is compatible with the current state.
  const std::vector<MeshAutomorphism> autos = mesh_automorphisms(f);
  std::string last = "no verified mesh automorphism maps processor " + std::to_string(k) +
                     " onto processor " + std::to_string(rep);
  for (const MeshAutomorphism& aut : autos) {
    if (aut.perm[static_cast<std::size_t>(k)] != rep) continue;
    std::string why = swap_objective_ok(f, aut);
    if (why.empty()) {
      std::vector<MapEntry> map;
      build_mesh_map(f, aut, &map);
      why = map_compatible(f, st, map);
    }
    if (why.empty()) return {};
    last = std::move(why);
  }
  return last;
}

}  // namespace

std::string check_instance_record(const model::Formulation& f, const lp::ReductionReplay& st,
                                  const lp::Reduction& rc) {
  if (rc.kind != ReductionKind::kFixVar) {
    return "instance-tagged records must be variable fixings";
  }
  if (rc.var < 0 || rc.var >= f.model().num_vars()) {
    return "record variable index is outside the model";
  }
  switch (rc.tag) {
    case ReductionTag::kDominance: return check_dominance(f, st, rc);
    case ReductionTag::kTwin: return check_twin(f, st, rc);
    case ReductionTag::kOrbit: return check_orbit(f, st, rc);
    default: return "record does not carry an instance tag";
  }
}

// ---------------------------------------------------------------------------
// Canonical instance hash.
// ---------------------------------------------------------------------------

namespace {

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  static_assert(sizeof u == sizeof d, "double must be 64-bit");
  std::memcpy(&u, &d, sizeof u);
  return u;
}

}  // namespace

std::uint64_t canonical_instance_hash(const model::Formulation& f) {
  const task::TaskGraph& g = f.problem().graph();
  const int m = g.num_tasks();
  // Colour refinement over the ORIGINAL task graph: start from the local
  // tables, then repeatedly fold in the sorted (neighbour colour, payload)
  // profiles. The fixpoint colours are invariant under any task relabeling,
  // so twins (and only structure-preserving relabelings) hash identically.
  std::vector<std::uint64_t> colour(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    std::uint64_t c = 1469598103934665603ull;
    c = fnv_mix(c, g.wcec(i));
    c = fnv_mix(c, bits_of(g.deadline(i)));
    colour[static_cast<std::size_t>(i)] = c;
  }
  for (int round = 0; round < m; ++round) {
    std::vector<std::uint64_t> next(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      std::vector<std::uint64_t> in_sig, out_sig;
      for (const int pr : g.predecessors(i)) {
        in_sig.push_back(fnv_mix(colour[static_cast<std::size_t>(pr)], bits_of(g.bytes(pr, i))));
      }
      for (const int su : g.successors(i)) {
        out_sig.push_back(fnv_mix(colour[static_cast<std::size_t>(su)], bits_of(g.bytes(i, su))));
      }
      std::sort(in_sig.begin(), in_sig.end());
      std::sort(out_sig.begin(), out_sig.end());
      std::uint64_t c = fnv_mix(colour[static_cast<std::size_t>(i)], 0x9e3779b97f4a7c15ull);
      for (const std::uint64_t s : in_sig) c = fnv_mix(c, s);
      c = fnv_mix(c, 0xfeedfacecafebeefull);
      for (const std::uint64_t s : out_sig) c = fnv_mix(c, s);
      next[static_cast<std::size_t>(i)] = c;
    }
    if (next == colour) break;
    colour = std::move(next);
  }
  std::sort(colour.begin(), colour.end());
  std::uint64_t h = fnv_mix(1469598103934665603ull, 0x6e6f636465706c6full);  // "nocdeplo"
  for (const std::uint64_t c : colour) h = fnv_mix(h, c);
  // Platform, V/F and fault tables in fixed order (processor labels as-is).
  const noc::Mesh& mesh = f.problem().mesh();
  const int n = mesh.num_procs();
  h = fnv_mix(h, static_cast<std::uint64_t>(mesh.rows()));
  h = fnv_mix(h, static_cast<std::uint64_t>(mesh.cols()));
  for (int b = 0; b < n; ++b) {
    for (int gg = 0; gg < n; ++gg) {
      if (b == gg) continue;
      for (int rho = 0; rho < noc::Mesh::kNumPaths; ++rho) {
        h = fnv_mix(h, bits_of(mesh.time_per_byte(b, gg, rho)));
        h = fnv_mix(h, bits_of(mesh.total_energy_per_byte(b, gg, rho)));
      }
    }
  }
  for (int i = 0; i < f.num_total_tasks(); ++i) {
    for (int l = 0; l < f.num_levels(); ++l) {
      h = fnv_mix(h, bits_of(f.wcec_time(i, l)));
      h = fnv_mix(h, bits_of(f.wcec_energy(i, l)));
      h = fnv_mix(h, bits_of(f.reliability(i, l)));
    }
  }
  h = fnv_mix(h, bits_of(f.problem().r_th()));
  h = fnv_mix(h, bits_of(f.horizon()));
  h = fnv_mix(h, f.options().objective == model::Objective::kBalanceEnergy ? 1u : 2u);
  h = fnv_mix(h, f.options().multi_path ? 1u : 0u);
  return h == 0 ? 1 : h;  // 0 is reserved for "no instance hash"
}

// ---------------------------------------------------------------------------
// Emission engine.
// ---------------------------------------------------------------------------

InstancePresolveResult instance_reductions(const model::Formulation& f,
                                           const InstancePresolveOptions& opt) {
  InstancePresolveResult res;
  res.log.canonical_hash = canonical_instance_hash(f);
  ReductionReplay st(f.model().lp());
  auto warm_val = [&](int var) {
    return opt.warm != nullptr && var >= 0 &&
                   var < static_cast<int>(opt.warm->size())
               ? (*opt.warm)[static_cast<std::size_t>(var)]
               : -1.0;
  };
  auto try_emit = [&](Reduction rc) {
    if (!check_instance_record(f, st, rc).empty()) return false;
    if (!st.apply(rc)) return false;
    res.log.reductions.push_back(rc);
    return true;
  };

  // Twins first: the exchange map needs the y/x boxes still symmetric, which
  // later dominance fixings (emitted per-task in index order) can break.
  for (int i = 0; i < f.num_tasks(); ++i) {
    for (int j = i + 1; j < f.num_tasks(); ++j) {
      const int zv = f.var_z(i, j);
      if (zv < 0) continue;
      if (opt.warm != nullptr && warm_val(zv) < 0.5) continue;  // keep warm reachable
      Reduction rc;
      rc.kind = ReductionKind::kFixVar;
      rc.tag = ReductionTag::kTwin;
      rc.var = zv;
      rc.value = 1.0;
      if (try_emit(rc)) ++res.twin_fixings;
    }
  }

  // V/F dominance: for every level still free, look for a weakly-better
  // witness level. First valid witness wins; the replay state keeps later
  // records honest about witness availability.
  for (int i = 0; i < f.num_total_tasks(); ++i) {
    for (int l2 = 0; l2 < f.num_levels(); ++l2) {
      const int yv = f.var_y(i, l2);
      if (st.hi(yv) != 1.0 || st.lo(yv) != 0.0) continue;  // fp-exact
      if (opt.warm != nullptr && warm_val(yv) > 0.5) continue;
      for (int l1 = 0; l1 < f.num_levels(); ++l1) {
        if (l1 == l2) continue;
        // Ties fix the higher level index, so tied levels cannot fix each
        // other both ways (the second attempt sees the witness box shrink
        // only when the witness itself was fixed — which this ordering
        // rule prevents).
        const bool tie = f.wcec_time(i, l1) == f.wcec_time(i, l2) &&       // fp-exact
                         f.wcec_energy(i, l1) == f.wcec_energy(i, l2) &&   // fp-exact
                         f.reliability(i, l1) == f.reliability(i, l2);     // fp-exact
        if (tie && l1 > l2) continue;
        Reduction rc;
        rc.kind = ReductionKind::kFixVar;
        rc.tag = ReductionTag::kDominance;
        rc.var = yv;
        rc.aux = f.var_y(i, l1);
        rc.value = 0.0;
        if (try_emit(rc)) {
          ++res.dominance_fixings;
          break;
        }
      }
    }
  }

  // Mesh orbits: restrict task 0's host to one representative (the minimum
  // index) per processor orbit of the verified automorphism group.
  if (f.num_total_tasks() > 0) {
    const std::vector<MeshAutomorphism> autos = mesh_automorphisms(f);
    res.automorphisms = static_cast<int>(autos.size()) - 1;
    if (autos.size() > 1) {
      const int n = f.num_procs();
      std::vector<int> rep(static_cast<std::size_t>(n));
      for (int k = 0; k < n; ++k) {
        int r = k;
        for (const MeshAutomorphism& a : autos) {
          r = std::min(r, a.perm[static_cast<std::size_t>(k)]);
        }
        rep[static_cast<std::size_t>(k)] = r;
      }
      for (int k = 0; k < n; ++k) {
        const int r = rep[static_cast<std::size_t>(k)];
        if (r == k) continue;
        const int xv = f.var_x(0, k);
        if (opt.warm != nullptr && warm_val(xv) > 0.5) continue;  // keep warm host
        Reduction rc;
        rc.kind = ReductionKind::kFixVar;
        rc.tag = ReductionTag::kOrbit;
        rc.var = xv;
        rc.aux = f.var_x(0, r);
        rc.value = 0.0;
        if (try_emit(rc)) ++res.orbit_fixings;
      }
    }
  }
  return res;
}

}  // namespace nd::analysis
