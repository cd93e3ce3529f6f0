#include "constraint/refine_batch.h"

#include <algorithm>
#include <cmath>

#include "geometry/dual.h"
#include "geometry/lp2d.h"

namespace cdb {

namespace {

/// Extremes of f(x, y) = y - slope*x over the corners of `box`. For a tuple
/// whose extension lies inside the box, BOT^t(slope) >= *f_min and
/// TOP^t(slope) <= *f_max — the bounds the early decisions lean on.
inline void BoxSupport(const Rect& box, double slope, double* f_min,
                       double* f_max) {
  double e1 = slope * box.xlo;
  double e2 = slope * box.xhi;
  *f_max = box.yhi - std::min(e1, e2);
  *f_min = box.ylo - std::max(e1, e2);
}

/// Box-provable decision: +1 accept, -1 reject, 0 undecided (run the LP).
/// The box can prove ALL-accepts (the whole box, hence the whole tuple,
/// satisfies the query) and EXIST-rejects (not even the box touches the
/// query) — never EXIST-accepts or ALL-rejects, which depend on the exact
/// tuple shape. The Definitely* margin (kEps * scale, ~1e-9 relative)
/// dominates the ~1e-16 relative rounding between the corner arithmetic
/// and the LP's support values, so every box decision agrees with the
/// decision the LP predicate would have made (DESIGN.md §2h).
inline int DecideFromBox(const Rect& box, SelectionType type,
                         const HalfPlaneQuery& q) {
  double f_min, f_max;
  BoxSupport(box, q.slope, &f_min, &f_max);
  if (type == SelectionType::kAll) {
    if (q.cmp == Cmp::kGE) {
      return DefinitelyLess(q.intercept, f_min) ? 1 : 0;
    }
    return DefinitelyGreater(q.intercept, f_max) ? 1 : 0;
  }
  if (q.cmp == Cmp::kGE) {
    return DefinitelyGreater(q.intercept, f_max) ? -1 : 0;
  }
  return DefinitelyLess(q.intercept, f_min) ? -1 : 0;
}

/// ExactAll/ExactExist (geometry/dual.cc) restructured over a
/// pre-normalized SoA slice, decision-identical to that pair:
///
///   ALL(q(>=))  iff  b <= BOT;   ALL(q(<=))  iff  b >= TOP;
///   EXIST(q(>=)) iff b <= TOP;  EXIST(q(<=)) iff b >= BOT.
///
/// ALL(>=) and EXIST(<=) read BOT (objective (slope, -1), support = -value);
/// the other two read TOP (objective (-slope, 1), support = value). The
/// boxed solve runs once; when its finite support value already decides the
/// query the same way on both recession-probe branches (an unbounded
/// surface makes ALL false and EXIST true regardless of b), the probe — the
/// second, equally expensive solve — is skipped.
bool ExactHalfPlaneSlice(const NormSlice2D& slice, SelectionType type,
                         const HalfPlaneQuery& q) {
  const bool bot_side = (type == SelectionType::kAll) == (q.cmp == Cmp::kGE);
  const double cx = bot_side ? q.slope : -q.slope;
  const double cy = bot_side ? -1.0 : 1.0;
  LpBoxed2D base = SolveBoxedNormalized2D(slice, cx, cy, kLpBox, false);
  if (!base.feasible) return false;  // Unsatisfiable (NaN surface): no match.
  const double support = bot_side ? -base.value : base.value;
  const bool finite_ok = q.cmp == Cmp::kGE
                             ? LessOrEq(q.intercept, support)
                             : GreaterOrEq(q.intercept, support);
  if (type == SelectionType::kAll) {
    if (!finite_ok) return false;  // Rejects whether bounded or not.
    return !UnboundedAbove2D(slice, cx, cy);  // ±inf surface rejects ALL.
  }
  if (finite_ok) return true;  // Accepts whether bounded or not.
  return UnboundedAbove2D(slice, cx, cy);  // ±inf surface accepts EXIST.
}

}  // namespace

Status RefineBatch2D(const Relation& relation, SelectionType type,
                     const HalfPlaneQuery& q, obs::Counter* lp_calls,
                     const QueryContext* ctx, std::vector<TupleId>* ids,
                     obs::FilterCounts* filter, uint64_t* false_hits) {
  static obs::Counter* const batch_candidates =
      obs::GlobalMetrics().counter("refine.batch.candidates");
  static obs::Counter* const bbox_accepts =
      obs::GlobalMetrics().counter("refine.batch.bbox_accepts");
  static obs::Counter* const bbox_rejects =
      obs::GlobalMetrics().counter("refine.batch.bbox_rejects");

  CDB_TRACE_SPAN("refine");
  batch_candidates->Increment(ids->size());
  // Layer (c), before any fetch: box-provable candidates are decided
  // without a fetch or an LP; the rest go to the page loop.
  std::vector<TupleId> box_kept;
  std::vector<TupleId> undecided;
  undecided.reserve(ids->size());
  uint64_t box_rejected = 0;
  for (TupleId id : *ids) {
    Rect box;
    int decision = relation.CachedBoundingBox(id, &box)
                       ? DecideFromBox(box, type, q)
                       : 0;
    if (decision > 0) {
      box_kept.push_back(id);
    } else if (decision < 0) {
      ++box_rejected;
    } else {
      undecided.push_back(id);
    }
  }
  filter->early_accepts += box_kept.size();
  filter->refine_rejects += box_rejected;
  *false_hits += box_rejected;
  bbox_accepts->Increment(box_kept.size());
  bbox_rejects->Increment(box_rejected);

  // Layers (a) + (b): the shared page loop, deciding through the SoA
  // kernels over a reused buffer.
  NormSoa2D soa;
  Status st = RefinePageClustered<Relation, GeneralizedTuple>(
      relation, lp_calls, ctx, &undecided, filter, false_hits,
      [&](const GeneralizedTuple& tuple) {
        soa.clear();
        AppendNormalized2D(tuple.constraints(), &soa);
        return ExactHalfPlaneSlice(NormSlice2D{&soa, 0, soa.size()}, type, q);
      });
  if (!st.ok()) return st;
  ids->resize(box_kept.size() + undecided.size());
  std::merge(box_kept.begin(), box_kept.end(), undecided.begin(),
             undecided.end(), ids->begin());
  return Status::OK();
}

}  // namespace cdb
