#include "dualindex/ddim_index.h"

#include <algorithm>
#include <cmath>

#include "constraint/refine_batch.h"
#include "geometry/polyhedron2d.h"
#include "obs/metrics.h"

namespace cdb {

namespace {

constexpr size_t kNpos = static_cast<size_t>(-1);
constexpr double kInf = std::numeric_limits<double>::infinity();

// Handicap slot convention for the d-dimensional trees: one cell per tree,
// so only the "prev" pair is used — slot 0 (min-combined, bounds upward
// first sweeps) and slot 2 (max-combined, bounds downward first sweeps).
constexpr int kLowSlot = 0;
constexpr int kHighSlot = 2;

// First sweep: collects every entry with key >= b (upward) or key <= b
// (downward), folding the handicap bound over all visited leaves when
// slot >= 0.
Status SweepTree(BPlusTree* tree, double b, bool upward, int slot,
                 std::vector<TupleId>* out, double* bound,
                 QueryStats* stats, const QueryContext* ctx) {
  LeafCursor cur;
  CDB_RETURN_IF_ERROR(tree->SeekLeaf(b, &cur));
  if (bound != nullptr) *bound = upward ? kInf : -kInf;
  bool first = true;
  while (cur.valid()) {
    // Deadline/cancellation checkpoint, once per leaf (= one page fetch).
    // The cursor holds no pins between moves, so this early exit is
    // pin-clean by construction.
    CDB_RETURN_IF_ERROR(CheckQueryContext(ctx));
    if (slot >= 0 && bound != nullptr) {
      double h = cur.handicap(slot);
      *bound = upward ? std::min(*bound, h) : std::max(*bound, h);
    }
    if (upward) {
      for (int j = first ? cur.seek_pos() : 0; j < cur.entry_count(); ++j) {
        out->push_back(cur.value(j));
        if (stats != nullptr) ++stats->candidates;
      }
      CDB_RETURN_IF_ERROR(cur.NextLeaf());
    } else {
      int limit = cur.entry_count();
      if (first) {
        limit = cur.seek_pos();
        for (int j = cur.seek_pos();
             j < cur.entry_count() && cur.key(j) == b; ++j) {
          out->push_back(cur.value(j));
          if (stats != nullptr) ++stats->candidates;
        }
      }
      for (int j = 0; j < limit; ++j) {
        out->push_back(cur.value(j));
        if (stats != nullptr) ++stats->candidates;
      }
      CDB_RETURN_IF_ERROR(cur.PrevLeaf());
    }
    first = false;
  }
  return Status::OK();
}

// Second sweep: the opposite direction, bounded by the handicap value
// (see DualIndex::SweepSecond; keys equal to b belong to the first sweep).
Status SweepSecondTree(BPlusTree* tree, double b, bool downward, double bound,
                       std::vector<TupleId>* out, QueryStats* stats,
                       const QueryContext* ctx) {
  LeafCursor cur;
  CDB_RETURN_IF_ERROR(tree->SeekLeaf(b, &cur));
  bool first = true;
  while (cur.valid()) {
    CDB_RETURN_IF_ERROR(CheckQueryContext(ctx));
    if (downward) {
      int start = first ? cur.seek_pos() - 1 : cur.entry_count() - 1;
      for (int j = start; j >= 0; --j) {
        if (cur.key(j) < bound) return Status::OK();
        out->push_back(cur.value(j));
        if (stats != nullptr) ++stats->candidates;
      }
      CDB_RETURN_IF_ERROR(cur.PrevLeaf());
    } else {
      for (int j = first ? cur.seek_pos() : 0; j < cur.entry_count(); ++j) {
        if (cur.key(j) == b) continue;
        if (cur.key(j) > bound) return Status::OK();
        out->push_back(cur.value(j));
        if (stats != nullptr) ++stats->candidates;
      }
      CDB_RETURN_IF_ERROR(cur.NextLeaf());
    }
    first = false;
  }
  return Status::OK();
}

double Dist2(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0;
  for (size_t i = 0; i < a.size(); ++i) s += (a[i] - b[i]) * (a[i] - b[i]);
  return s;
}

}  // namespace

Status DDimDualIndex::Create(Pager* pager, RelationD* relation,
                             std::vector<std::vector<double>> slope_points,
                             std::unique_ptr<DDimDualIndex>* out) {
  if (slope_points.empty()) {
    return Status::InvalidArgument("slope point set must be non-empty");
  }
  for (const auto& p : slope_points) {
    if (p.size() != relation->dim() - 1) {
      return Status::InvalidArgument("slope point has wrong dimension");
    }
  }
  std::unique_ptr<DDimDualIndex> index(
      new DDimDualIndex(pager, relation, std::move(slope_points)));
  const size_t k = index->slope_points_.size();
  index->up_.resize(k);
  index->down_.resize(k);
  for (size_t i = 0; i < k; ++i) {
    CDB_RETURN_IF_ERROR(BPlusTree::Create(pager, &index->up_[i]));
    CDB_RETURN_IF_ERROR(BPlusTree::Create(pager, &index->down_[i]));
  }
  index->BuildVoronoiCells();
  // Two-phase bulk load (see DualIndex::Build): keys first, handicaps on
  // the settled leaf structure.
  CDB_RETURN_IF_ERROR(relation->ForEach(
      [&](TupleId id, const GeneralizedTupleD& tuple) -> Status {
        return index->IndexTuple(id, tuple);
      }));
  CDB_RETURN_IF_ERROR(relation->ForEach(
      [&](TupleId, const GeneralizedTupleD& tuple) -> Status {
        return index->FoldHandicapsD(tuple);
      }));
  *out = std::move(index);
  return Status::OK();
}

void DDimDualIndex::BuildVoronoiCells() {
  cell_vertices_.clear();
  if (relation_->dim() != 3 || slope_points_.size() < 2) return;

  // Bounding box of S in the 2-D slope plane.
  double xlo = kInf, xhi = -kInf, ylo = kInf, yhi = -kInf;
  for (const auto& s : slope_points_) {
    xlo = std::min(xlo, s[0]);
    xhi = std::max(xhi, s[0]);
    ylo = std::min(ylo, s[1]);
    yhi = std::max(yhi, s[1]);
  }

  cell_vertices_.resize(slope_points_.size());
  for (size_t i = 0; i < slope_points_.size(); ++i) {
    const auto& si = slope_points_[i];
    std::vector<Constraint2D> cons;
    // Bisector half-planes |p - s_i|^2 <= |p - s_j|^2.
    for (size_t j = 0; j < slope_points_.size(); ++j) {
      if (j == i) continue;
      const auto& sj = slope_points_[j];
      double a = 2 * (sj[0] - si[0]);
      double b = 2 * (sj[1] - si[1]);
      double c = (si[0] * si[0] + si[1] * si[1]) -
                 (sj[0] * sj[0] + sj[1] * sj[1]);
      cons.emplace_back(a, b, c, Cmp::kLE);
    }
    // Clip to the bounding box of S (queries beyond it use T1).
    cons.emplace_back(1, 0, -xhi, Cmp::kLE);
    cons.emplace_back(1, 0, -xlo, Cmp::kGE);
    cons.emplace_back(0, 1, -yhi, Cmp::kLE);
    cons.emplace_back(0, 1, -ylo, Cmp::kGE);

    Polyhedron2D cell = Polyhedron2D::FromConstraints(cons);
    for (const Vec2& v : cell.vertices) {
      cell_vertices_[i].push_back({v.x, v.y});
    }
    // Degenerate cells (collinear S) may have < 3 vertices; always include
    // the site itself so the assignment never under-covers the exact point.
    cell_vertices_[i].push_back({si[0], si[1]});
  }
}

Status DDimDualIndex::IndexTuple(TupleId id, const GeneralizedTupleD& tuple) {
  const size_t k = slope_points_.size();
  std::vector<double> tops(k), bots(k);
  for (size_t i = 0; i < k; ++i) {
    tops[i] = TopValueD(tuple.constraints(), slope_points_[i]);
    bots[i] = BotValueD(tuple.constraints(), slope_points_[i]);
    if (std::isnan(tops[i]) || std::isnan(bots[i])) {
      return Status::InvalidArgument("unsatisfiable tuple cannot be indexed");
    }
  }
  for (size_t i = 0; i < k; ++i) {
    CDB_RETURN_IF_ERROR(up_[i]->Insert(tops[i], id));
    CDB_RETURN_IF_ERROR(down_[i]->Insert(bots[i], id));
  }
  return Status::OK();
}

Status DDimDualIndex::FoldHandicapsD(const GeneralizedTupleD& tuple) {
  if (cell_vertices_.empty()) return Status::OK();  // d != 3.
  for (size_t i = 0; i < slope_points_.size(); ++i) {
    double key_top = TopValueD(tuple.constraints(), slope_points_[i]);
    double key_bot = BotValueD(tuple.constraints(), slope_points_[i]);
    // Extrema of the dual surfaces over the cell: TOP is convex and BOT
    // concave over the slope plane, so both extrema sit on cell vertices.
    double top_max = -kInf, bot_min = kInf;
    for (const auto& v : cell_vertices_[i]) {
      top_max = std::max(top_max, TopValueD(tuple.constraints(), v));
      bot_min = std::min(bot_min, BotValueD(tuple.constraints(), v));
    }
    // EXIST(q(>=)) on up[i]: assignment max TOP over cell (exact).
    CDB_RETURN_IF_ERROR(up_[i]->MergeHandicap(top_max, kLowSlot, key_top));
    // ALL(q(<=)) on up[i]: lower bound of min TOP over cell — min BOT is a
    // safe dominated bound (paper-style cross-surface assignment).
    CDB_RETURN_IF_ERROR(up_[i]->MergeHandicap(bot_min, kHighSlot, key_top));
    // ALL(q(>=)) on down[i]: upper bound of max BOT over cell via max TOP.
    CDB_RETURN_IF_ERROR(down_[i]->MergeHandicap(top_max, kLowSlot, key_bot));
    // EXIST(q(<=)) on down[i]: min BOT over cell (exact).
    CDB_RETURN_IF_ERROR(down_[i]->MergeHandicap(bot_min, kHighSlot, key_bot));
  }
  return Status::OK();
}

Result<TupleId> DDimDualIndex::Insert(const GeneralizedTupleD& tuple) {
  if (tuple.dim() != relation_->dim()) {
    return Status::InvalidArgument("tuple dimension mismatch");
  }
  if (!IsSatisfiableD(tuple.constraints(), tuple.dim())) {
    return Status::InvalidArgument("unsatisfiable tuple cannot be indexed");
  }
  Result<TupleId> id = relation_->Insert(tuple);
  if (!id.ok()) return id.status();
  Status st = IndexTuple(id.value(), tuple);
  if (st.ok()) st = FoldHandicapsD(tuple);
  if (!st.ok()) {
    relation_->Delete(id.value()).ok();
    return st;
  }
  return id;
}

size_t DDimDualIndex::FindExact(const std::vector<double>& p) const {
  for (size_t i = 0; i < slope_points_.size(); ++i) {
    if (slope_points_[i] == p) return i;
  }
  return kNpos;
}

std::vector<size_t> DDimDualIndex::FindCoveringSimplex(
    const std::vector<double>& p) const {
  // Feasibility LP: lambda >= 0, sum lambda = 1, sum lambda_j * s_j = p.
  // A basic feasible solution has at most d non-zero coefficients
  // (Caratheodory), which the simplex solver returns naturally.
  const size_t k = slope_points_.size();
  const size_t m = p.size();
  std::vector<ConstraintD> cons;
  for (size_t j = 0; j < k; ++j) {
    std::vector<double> e(k, 0.0);
    e[j] = 1.0;
    cons.emplace_back(e, 0.0, Cmp::kGE);  // lambda_j >= 0.
  }
  std::vector<double> ones(k, 1.0);
  cons.emplace_back(ones, -1.0, Cmp::kLE);  // sum lambda <= 1
  cons.emplace_back(ones, -1.0, Cmp::kGE);  // sum lambda >= 1
  for (size_t t = 0; t < m; ++t) {
    std::vector<double> row(k);
    for (size_t j = 0; j < k; ++j) row[j] = slope_points_[j][t];
    cons.emplace_back(row, -p[t], Cmp::kLE);
    cons.emplace_back(row, -p[t], Cmp::kGE);
  }
  LpDResult r = MaximizeLinearD(cons, std::vector<double>(k, 0.0));
  if (r.status != LpStatus::kOptimal) return {};
  std::vector<size_t> support;
  for (size_t j = 0; j < k; ++j) {
    if (r.point[j] > 1e-9) support.push_back(j);
  }
  return support;
}

Status DDimDualIndex::RunExact(size_t slope_idx, SelectionType type, Cmp cmp,
                               double intercept, std::vector<TupleId>* out,
                               QueryStats* stats, const QueryContext* ctx) {
  BPlusTree* tree;
  if (type == SelectionType::kExist) {
    tree = cmp == Cmp::kGE ? up_[slope_idx].get() : down_[slope_idx].get();
  } else {
    tree = cmp == Cmp::kGE ? down_[slope_idx].get() : up_[slope_idx].get();
  }
  return SweepTree(tree, intercept, /*upward=*/cmp == Cmp::kGE, /*slot=*/-1,
                   out, nullptr, stats, ctx);
}

Status DDimDualIndex::Refine(SelectionType type, const HalfPlaneQueryD& q,
                             std::vector<TupleId>* ids, QueryStats* st,
                             const QueryContext* ctx) {
  static obs::Counter* const lp_calls =
      obs::GlobalMetrics().counter("ddim.refine.lp_calls");
  static obs::Counter* const batch_candidates =
      obs::GlobalMetrics().counter("refine.batch.candidates");
  CDB_TRACE_SPAN("refine");
  batch_candidates->Increment(ids->size());
  return RefinePageClustered<RelationD, GeneralizedTupleD>(
      *relation_, lp_calls, ctx, ids, &st->filter, &st->false_hits,
      [&](const GeneralizedTupleD& tuple) {
        return type == SelectionType::kAll
                   ? ExactAllD(tuple.constraints(), q)
                   : ExactExistD(tuple.constraints(), q);
      });
}

Result<std::vector<TupleId>> DDimDualIndex::SelectT1(SelectionType type,
                                                     const HalfPlaneQueryD& q,
                                                     QueryStats* st,
                                                     const QueryContext* ctx) {
  std::vector<size_t> simplex = FindCoveringSimplex(q.slope);
  if (simplex.empty()) {
    return Status::NotSupported(
        "query slope point outside the convex hull of S");
  }
  // ALL runs as ALL on the nearest simplex corner + EXIST on the others;
  // EXIST as EXIST everywhere (Section 4.4 / DESIGN.md coverage argument).
  size_t all_idx = simplex[0];
  if (type == SelectionType::kAll) {
    for (size_t j : simplex) {
      if (Dist2(slope_points_[j], q.slope) <
          Dist2(slope_points_[all_idx], q.slope)) {
        all_idx = j;
      }
    }
  }
  std::vector<TupleId> ids;
  {
    CDB_TRACE_SPAN("filter");
    for (size_t j : simplex) {
      SelectionType app_type =
          (type == SelectionType::kAll && j == all_idx)
              ? SelectionType::kAll
              : SelectionType::kExist;
      CDB_RETURN_IF_ERROR(
          RunExact(j, app_type, q.cmp, q.intercept, &ids, st, ctx));
    }
    std::sort(ids.begin(), ids.end());
    size_t before_dedup = ids.size();
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    st->duplicates += before_dedup - ids.size();
    st->filter.dedup_dropped += before_dedup - ids.size();
  }
  CDB_RETURN_IF_ERROR(Refine(type, q, &ids, st, ctx));
  return ids;
}

Result<std::vector<TupleId>> DDimDualIndex::SelectT2(SelectionType type,
                                                     const HalfPlaneQueryD& q,
                                                     QueryStats* st,
                                                     const QueryContext* ctx) {
  // Applicability: d == 3 with precomputed cells, query slope point inside
  // the bounding box of S (the cells tile exactly that box).
  bool applicable = !cell_vertices_.empty();
  if (applicable) {
    double xlo = kInf, xhi = -kInf, ylo = kInf, yhi = -kInf;
    for (const auto& s : slope_points_) {
      xlo = std::min(xlo, s[0]);
      xhi = std::max(xhi, s[0]);
      ylo = std::min(ylo, s[1]);
      yhi = std::max(yhi, s[1]);
    }
    applicable = q.slope[0] >= xlo && q.slope[0] <= xhi &&
                 q.slope[1] >= ylo && q.slope[1] <= yhi;
  }
  if (!applicable) {
    st->used_wrap_fallback = true;
    return SelectT1(type, q, st, ctx);
  }

  // Nearest site: the query point lies in its Voronoi cell by definition.
  size_t nearest = 0;
  for (size_t i = 1; i < slope_points_.size(); ++i) {
    if (Dist2(slope_points_[i], q.slope) <
        Dist2(slope_points_[nearest], q.slope)) {
      nearest = i;
    }
  }

  BPlusTree* tree;
  bool sweep_up;
  int slot;
  if (type == SelectionType::kExist) {
    if (q.cmp == Cmp::kGE) {
      tree = up_[nearest].get();
      sweep_up = true;
      slot = kLowSlot;
    } else {
      tree = down_[nearest].get();
      sweep_up = false;
      slot = kHighSlot;
    }
  } else {
    if (q.cmp == Cmp::kGE) {
      tree = down_[nearest].get();
      sweep_up = true;
      slot = kLowSlot;
    } else {
      tree = up_[nearest].get();
      sweep_up = false;
      slot = kHighSlot;
    }
  }

  std::vector<TupleId> ids;
  {
    CDB_TRACE_SPAN("filter");
    double bound = 0.0;
    {
      CDB_TRACE_SPAN("sweep/first");
      CDB_RETURN_IF_ERROR(
          SweepTree(tree, q.intercept, sweep_up, slot, &ids, &bound, st, ctx));
    }
    if (sweep_up ? bound < q.intercept : bound > q.intercept) {
      CDB_TRACE_SPAN("sweep/second");
      CDB_RETURN_IF_ERROR(SweepSecondTree(tree, q.intercept,
                                          /*downward=*/sweep_up, bound, &ids,
                                          st, ctx));
    }
    std::sort(ids.begin(), ids.end());
  }
  CDB_RETURN_IF_ERROR(Refine(type, q, &ids, st, ctx));
  return ids;
}

Result<std::vector<TupleId>> DDimDualIndex::Select(SelectionType type,
                                                   const HalfPlaneQueryD& q,
                                                   Method method,
                                                   QueryStats* stats,
                                                   obs::ExplainProfile* profile,
                                                   const QueryContext* ctx) {
  if (q.dim() != relation_->dim()) {
    return Status::InvalidArgument("query dimension mismatch");
  }
  QueryStats local;
  QueryStats* st = stats != nullptr ? stats : &local;
  *st = QueryStats();
  obs::Tracer tracer("ddim/select", pager_, relation_->pager());

  Result<std::vector<TupleId>> result = [&]() -> Result<std::vector<TupleId>> {
    size_t exact = FindExact(q.slope);
    if (exact != kNpos) {
      CDB_TRACE_SPAN("sweep/exact");
      std::vector<TupleId> ids;
      Status s = RunExact(exact, type, q.cmp, q.intercept, &ids, st, ctx);
      if (!s.ok()) return s;
      std::sort(ids.begin(), ids.end());
      st->filter.early_accepts += ids.size();  // Exact sweep: no refinement.
      return ids;
    }
    switch (method) {
      case Method::kExactOnly:
        return Status::InvalidArgument("query slope point not in S");
      case Method::kT1:
        return SelectT1(type, q, st, ctx);
      case Method::kT2:
        return SelectT2(type, q, st, ctx);
    }
    return Status::InvalidArgument("unknown method");
  }();

  obs::PhaseCost totals = obs::FinishQueryTrace(&tracer, profile);
  st->index_page_fetches = totals.index_fetches;  // Logical (decision 11).
  st->tuple_page_fetches = totals.tuple_reads;    // Physical (decision 11).
  if (result.ok()) {
    st->results = result.value().size();
    st->filter.candidates = st->candidates;
    st->filter.results = st->results;
  } else {
    // Early exit (deadline/cancellation/I-O error): candidates the filter
    // produced but never classified are booked as abandoned so the
    // partition invariant still balances on partial queries.
    st->filter.candidates = st->candidates;
    st->filter.abandoned =
        st->candidates -
        (st->filter.dedup_dropped + st->filter.early_accepts +
         st->filter.refine_accepts + st->filter.refine_rejects);
    st->results = st->filter.early_accepts + st->filter.refine_accepts;
    st->filter.results = st->results;
  }
  if (profile != nullptr) profile->filter = st->filter;
  return result;
}

}  // namespace cdb
