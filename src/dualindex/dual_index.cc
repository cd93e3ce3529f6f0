#include "dualindex/dual_index.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "constraint/refine_batch.h"
#include "geometry/dual.h"
#include "obs/metrics.h"

namespace cdb {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Handicap slot layout (must match btree_node polarity: 0-1 min, 2-3 max).
int LowSlot(bool next_side) { return next_side ? 1 : 0; }
int HighSlot(bool next_side) { return next_side ? 3 : 2; }

}  // namespace

namespace {

// Leaf fill factor for bulk loads: dense pages (the paper's space profile)
// with slack for later inserts.
constexpr double kBulkFill = 0.8;

}  // namespace

Status DualIndex::Build(Pager* pager, Relation* relation, SlopeSet slopes,
                        const DualIndexOptions& options,
                        std::unique_ptr<DualIndex>* out) {
  std::unique_ptr<DualIndex> index(
      new DualIndex(pager, relation, std::move(slopes), options));
  const size_t k = index->slopes_.size();

  // Gather every tuple's surface values, then bulk-load each tree sorted —
  // one pass, packed leaves. Handicaps are computed afterwards on the
  // settled leaf structure, like the paper's preprocessing phase. (Folding
  // them while leaves split would smear early contributions across the
  // whole tree — conservative but useless bounds.)
  const bool inc = options.incremental_handicaps;
  std::vector<std::vector<std::pair<double, uint32_t>>> ups(k), downs(k);
  std::vector<std::vector<BPlusTree::AugEntry>> aug_ups(inc ? k : 0),
      aug_downs(inc ? k : 0);
  std::vector<std::pair<double, uint32_t>> xmaxs, xmins;
  CDB_RETURN_IF_ERROR(relation->ForEach(
      [&](TupleId id, const GeneralizedTuple& tuple) -> Status {
        for (size_t i = 0; i < k; ++i) {
          double top = tuple.Top(index->slopes_.slope(i));
          double bot = tuple.Bot(index->slopes_.slope(i));
          if (std::isnan(top) || std::isnan(bot)) {
            return Status::InvalidArgument(
                "unsatisfiable tuple cannot be indexed (id " +
                std::to_string(id) + ")");
          }
          if (inc) {
            BPlusTree::AugEntry eu{top, id, {}};
            BPlusTree::AugEntry ed{bot, id, {}};
            CDB_RETURN_IF_ERROR(
                index->TreeAssignments(i, /*is_up=*/true, tuple, eu.m));
            CDB_RETURN_IF_ERROR(
                index->TreeAssignments(i, /*is_up=*/false, tuple, ed.m));
            aug_ups[i].push_back(eu);
            aug_downs[i].push_back(ed);
          } else {
            ups[i].emplace_back(top, id);
            downs[i].emplace_back(bot, id);
          }
        }
        if (options.support_vertical) {
          xmaxs.emplace_back(XMaxValue(tuple.constraints()), id);
          xmins.emplace_back(XMinValue(tuple.constraints()), id);
        }
        return Status::OK();
      }));

  index->up_.resize(k);
  index->down_.resize(k);
  for (size_t i = 0; i < k; ++i) {
    if (inc) {
      CDB_RETURN_IF_ERROR(BPlusTree::BulkLoadAugmented(
          pager, std::move(aug_ups[i]), kBulkFill, &index->up_[i]));
      CDB_RETURN_IF_ERROR(BPlusTree::BulkLoadAugmented(
          pager, std::move(aug_downs[i]), kBulkFill, &index->down_[i]));
    } else {
      CDB_RETURN_IF_ERROR(BPlusTree::BulkLoad(pager, std::move(ups[i]),
                                              kBulkFill, &index->up_[i]));
      CDB_RETURN_IF_ERROR(BPlusTree::BulkLoad(pager, std::move(downs[i]),
                                              kBulkFill, &index->down_[i]));
    }
  }
  if (options.support_vertical) {
    CDB_RETURN_IF_ERROR(
        BPlusTree::BulkLoad(pager, std::move(xmaxs), kBulkFill, &index->xmax_));
    CDB_RETURN_IF_ERROR(
        BPlusTree::BulkLoad(pager, std::move(xmins), kBulkFill, &index->xmin_));
  }
  if (inc) {
    // The augmented bulk load already produced exact slots and aggregates.
    index->RegisterAssignmentFns();
  } else {
    CDB_RETURN_IF_ERROR(index->RebuildHandicaps());
  }
  *out = std::move(index);
  return Status::OK();
}

Status DualIndex::Open(Pager* pager, Relation* relation,
                       const DualIndexManifest& manifest,
                       const DualIndexOptions& runtime_options,
                       std::unique_ptr<DualIndex>* out) {
  if (manifest.slopes.empty() ||
      manifest.up_metas.size() != manifest.slopes.size() ||
      manifest.down_metas.size() != manifest.slopes.size()) {
    return Status::InvalidArgument("inconsistent dual-index manifest");
  }
  DualIndexOptions options = runtime_options;
  options.tight_assignment = manifest.tight_assignment;
  options.support_vertical = manifest.support_vertical;
  std::unique_ptr<DualIndex> index(new DualIndex(
      pager, relation, SlopeSet(manifest.slopes), options));
  const size_t k = index->slopes_.size();
  index->up_.resize(k);
  index->down_.resize(k);
  for (size_t i = 0; i < k; ++i) {
    CDB_RETURN_IF_ERROR(
        BPlusTree::Open(pager, manifest.up_metas[i], &index->up_[i]));
    CDB_RETURN_IF_ERROR(
        BPlusTree::Open(pager, manifest.down_metas[i], &index->down_[i]));
  }
  // Whether the trees are augmented is persisted in their meta pages, not
  // the manifest; rederive the mode from the first tree (all 2k agree).
  index->options_.incremental_handicaps = index->up_[0]->augmented();
  for (size_t i = 0; i < k; ++i) {
    if (index->up_[i]->augmented() !=
            index->options_.incremental_handicaps ||
        index->down_[i]->augmented() !=
            index->options_.incremental_handicaps) {
      return Status::Corruption("mixed augmented/ordinary trees in manifest");
    }
  }
  if (index->options_.incremental_handicaps) index->RegisterAssignmentFns();
  if (manifest.support_vertical) {
    if (manifest.xmax_meta == kInvalidPageId ||
        manifest.xmin_meta == kInvalidPageId) {
      return Status::InvalidArgument("manifest missing vertical trees");
    }
    CDB_RETURN_IF_ERROR(
        BPlusTree::Open(pager, manifest.xmax_meta, &index->xmax_));
    CDB_RETURN_IF_ERROR(
        BPlusTree::Open(pager, manifest.xmin_meta, &index->xmin_));
  }
  *out = std::move(index);
  return Status::OK();
}

DualIndexManifest DualIndex::Manifest() const {
  DualIndexManifest m;
  m.slopes = slopes_.slopes();
  m.tight_assignment = options_.tight_assignment;
  m.support_vertical = options_.support_vertical;
  for (const auto& tree : up_) m.up_metas.push_back(tree->meta_page());
  for (const auto& tree : down_) m.down_metas.push_back(tree->meta_page());
  if (xmax_ != nullptr) m.xmax_meta = xmax_->meta_page();
  if (xmin_ != nullptr) m.xmin_meta = xmin_->meta_page();
  return m;
}

Status DualIndex::HandicapContributions(size_t i, size_t other,
                                        const GeneralizedTuple& tuple,
                                        double top_i, double bot_i,
                                        HandicapContribution out[4]) const {
  const bool next_side = other > i;
  const double s_i = slopes_.slope(i);
  const double amid = (s_i + slopes_.slope(other)) / 2.0;
  const double lo = std::min(s_i, amid);
  const double hi = std::max(s_i, amid);

  const double top_mid = tuple.Top(amid);
  const double bot_mid = tuple.Bot(amid);

  // EXIST(q(>=)) on B_i^up: assignment = max TOP over [s_i, amid]
  // (exact at endpoints: TOP is convex in the slope).
  out[0] = {/*is_up=*/true, std::max(top_i, top_mid), LowSlot(next_side),
            top_i};

  // ALL(q(<=)) on B_i^up: assignment must lower-bound min TOP over the
  // interval; paper variant uses min BOT at endpoints (concave, exact),
  // tight variant solves the minimax LP.
  out[1] = {/*is_up=*/true,
            options_.tight_assignment
                ? MinTopOverInterval(tuple.constraints(), lo, hi)
                : std::min(bot_i, bot_mid),
            HighSlot(next_side), top_i};

  // ALL(q(>=)) on B_i^down: assignment must upper-bound max BOT over the
  // interval; paper variant uses max TOP at endpoints.
  out[2] = {/*is_up=*/false,
            options_.tight_assignment
                ? MaxBotOverInterval(tuple.constraints(), lo, hi)
                : std::max(top_i, top_mid),
            LowSlot(next_side), bot_i};

  // EXIST(q(<=)) on B_i^down: assignment = min BOT over [s_i, amid]
  // (exact at endpoints: BOT is concave).
  out[3] = {/*is_up=*/false, std::min(bot_i, bot_mid), HighSlot(next_side),
            bot_i};
  return Status::OK();
}

Status DualIndex::FoldHandicaps(size_t i, size_t other,
                                const GeneralizedTuple& tuple, double top_i,
                                double bot_i) {
  HandicapContribution c[4];
  CDB_RETURN_IF_ERROR(
      HandicapContributions(i, other, tuple, top_i, bot_i, c));
  for (const HandicapContribution& hc : c) {
    BPlusTree* tree = hc.is_up ? up_[i].get() : down_[i].get();
    CDB_RETURN_IF_ERROR(tree->MergeHandicap(hc.at, hc.slot, hc.v));
  }
  return Status::OK();
}

Status DualIndex::TreeAssignments(size_t i, bool is_up,
                                  const GeneralizedTuple& tuple,
                                  double* m) const {
  const double s_i = slopes_.slope(i);
  const double top_i = tuple.Top(s_i);
  const double bot_i = tuple.Bot(s_i);
  if (std::isnan(top_i) || std::isnan(bot_i)) {
    return Status::InvalidArgument("unsatisfiable tuple");
  }
  // Augmented neutral values for slots without a neighbour interval: low
  // slots (0, 1) fold by max, high slots (2, 3) by min.
  m[0] = m[1] = -kInf;
  m[2] = m[3] = kInf;
  const size_t k = slopes_.size();
  for (int step = -1; step <= 1; step += 2) {
    if (step < 0 ? i == 0 : i + 1 >= k) continue;
    const size_t other = step < 0 ? i - 1 : i + 1;
    const bool next_side = other > i;
    const double amid = (s_i + slopes_.slope(other)) / 2.0;
    const double lo = std::min(s_i, amid);
    const double hi = std::max(s_i, amid);
    const double top_mid = tuple.Top(amid);
    const double bot_mid = tuple.Bot(amid);
    // Same assignment math as FoldHandicaps; the values land in the slots
    // of the tuple's own leaf instead of the leaf covering the assignment.
    if (is_up) {
      m[LowSlot(next_side)] = std::max(top_i, top_mid);  // EXIST(q(>=)).
      m[HighSlot(next_side)] =
          options_.tight_assignment
              ? MinTopOverInterval(tuple.constraints(), lo, hi)
              : std::min(bot_i, bot_mid);  // ALL(q(<=)).
    } else {
      m[LowSlot(next_side)] =
          options_.tight_assignment
              ? MaxBotOverInterval(tuple.constraints(), lo, hi)
              : std::max(top_i, top_mid);                // ALL(q(>=)).
      m[HighSlot(next_side)] = std::min(bot_i, bot_mid);  // EXIST(q(<=)).
    }
  }
  return Status::OK();
}

void DualIndex::RegisterAssignmentFns() {
  for (size_t i = 0; i < up_.size(); ++i) {
    up_[i]->SetAssignmentFn([this, i](uint32_t value, double* m) -> Status {
      GeneralizedTuple tuple;
      CDB_RETURN_IF_ERROR(relation_->Get(value, &tuple));
      return TreeAssignments(i, /*is_up=*/true, tuple, m);
    });
    down_[i]->SetAssignmentFn([this, i](uint32_t value, double* m) -> Status {
      GeneralizedTuple tuple;
      CDB_RETURN_IF_ERROR(relation_->Get(value, &tuple));
      return TreeAssignments(i, /*is_up=*/false, tuple, m);
    });
  }
}

Status DualIndex::ValidateForInsert(const GeneralizedTuple& tuple) const {
  if (tuple.empty()) {
    return Status::InvalidArgument("tuple must have at least one constraint");
  }
  for (size_t i = 0; i < slopes_.size(); ++i) {
    if (std::isnan(tuple.Top(slopes_.slope(i))) ||
        std::isnan(tuple.Bot(slopes_.slope(i)))) {
      return Status::InvalidArgument(
          "unsatisfiable tuple cannot be indexed");
    }
  }
  if (xmax_ != nullptr) {
    if (std::isnan(XMaxValue(tuple.constraints())) ||
        std::isnan(XMinValue(tuple.constraints()))) {
      return Status::InvalidArgument("unsatisfiable tuple cannot be indexed");
    }
  }
  return Status::OK();
}

Status DualIndex::Insert(TupleId id, const GeneralizedTuple& tuple) {
  const size_t k = slopes_.size();
  // One pass to validate before mutating any tree.
  std::vector<double> tops(k), bots(k);
  for (size_t i = 0; i < k; ++i) {
    tops[i] = tuple.Top(slopes_.slope(i));
    bots[i] = tuple.Bot(slopes_.slope(i));
    if (std::isnan(tops[i]) || std::isnan(bots[i])) {
      return Status::InvalidArgument(
          "unsatisfiable tuple cannot be indexed (id " + std::to_string(id) +
          ")");
    }
  }
  if (xmax_ != nullptr) {
    double mx = XMaxValue(tuple.constraints());
    double mn = XMinValue(tuple.constraints());
    if (std::isnan(mx) || std::isnan(mn)) {
      return Status::InvalidArgument("unsatisfiable tuple cannot be indexed");
    }
    CDB_RETURN_IF_ERROR(xmax_->Insert(mx, id));
    CDB_RETURN_IF_ERROR(xmin_->Insert(mn, id));
  }
  for (size_t i = 0; i < k; ++i) {
    if (options_.incremental_handicaps) {
      // Assignments ride along with the entry; the tree folds them into
      // the target leaf's slots and refreshes the aggregate path — no
      // global handicap smearing, values stay exact.
      double mu[4], md[4];
      CDB_RETURN_IF_ERROR(TreeAssignments(i, /*is_up=*/true, tuple, mu));
      CDB_RETURN_IF_ERROR(TreeAssignments(i, /*is_up=*/false, tuple, md));
      CDB_RETURN_IF_ERROR(up_[i]->InsertWithAssignment(tops[i], id, mu));
      CDB_RETURN_IF_ERROR(down_[i]->InsertWithAssignment(bots[i], id, md));
      continue;
    }
    CDB_RETURN_IF_ERROR(up_[i]->Insert(tops[i], id));
    CDB_RETURN_IF_ERROR(down_[i]->Insert(bots[i], id));
    if (i > 0) {
      CDB_RETURN_IF_ERROR(FoldHandicaps(i, i - 1, tuple, tops[i], bots[i]));
    }
    if (i + 1 < k) {
      CDB_RETURN_IF_ERROR(FoldHandicaps(i, i + 1, tuple, tops[i], bots[i]));
    }
  }
  return Status::OK();
}

Status DualIndex::Remove(TupleId id, const GeneralizedTuple& tuple) {
  const size_t k = slopes_.size();
  if (xmax_ != nullptr) {
    double mx = XMaxValue(tuple.constraints());
    double mn = XMinValue(tuple.constraints());
    if (std::isnan(mx) || std::isnan(mn)) {
      return Status::InvalidArgument("unsatisfiable tuple");
    }
    CDB_RETURN_IF_ERROR(xmax_->Delete(mx, id));
    CDB_RETURN_IF_ERROR(xmin_->Delete(mn, id));
  }
  for (size_t i = 0; i < k; ++i) {
    double top = tuple.Top(slopes_.slope(i));
    double bot = tuple.Bot(slopes_.slope(i));
    if (std::isnan(top) || std::isnan(bot)) {
      return Status::InvalidArgument("unsatisfiable tuple");
    }
    CDB_RETURN_IF_ERROR(up_[i]->Delete(top, id));
    CDB_RETURN_IF_ERROR(down_[i]->Delete(bot, id));
    // Ordinary trees: handicaps stay conservatively stale (see header).
    // Augmented trees resolve the removed assignments via the callback
    // (which is why Remove must run before the relation's Delete) and
    // stay exact.
  }
  return Status::OK();
}

// --- Sweeps ------------------------------------------------------------------

// First sweep, upward: collects every entry with key >= from (starting at
// the leaf whose range contains `from`), folding the min of handicap `slot`
// over every visited leaf (slot < 0 disables handicap reading).
Status DualIndex::SweepCollect(BPlusTree* tree, double from, bool upward,
                               int slot, std::vector<TupleId>* out,
                               double* handicap_bound, QueryStats* stats,
                               const QueryContext* ctx) {
  LeafCursor cur;
  CDB_RETURN_IF_ERROR(tree->SeekLeaf(from, &cur));
  if (handicap_bound != nullptr) {
    *handicap_bound = upward ? kInf : -kInf;
  }
  bool first = true;
  while (cur.valid()) {
    // Deadline/cancellation checkpoint, once per leaf (= one page-fetch
    // boundary). The cursor holds no pins between moves, so this early
    // exit leaves the pager clean.
    CDB_RETURN_IF_ERROR(CheckQueryContext(ctx));
    if (slot >= 0 && handicap_bound != nullptr) {
      double h = cur.handicap(slot);
      *handicap_bound =
          upward ? std::min(*handicap_bound, h) : std::max(*handicap_bound, h);
    }
    if (upward) {
      for (int j = first ? cur.seek_pos() : 0; j < cur.entry_count(); ++j) {
        out->push_back(cur.value(j));
        if (stats != nullptr) ++stats->candidates;
      }
      CDB_RETURN_IF_ERROR(cur.NextLeaf());
    } else {
      // Downward: everything before seek_pos has key < from; entries at and
      // after seek_pos with key == from also qualify (key <= from).
      int limit = cur.entry_count();
      if (first) {
        limit = cur.seek_pos();
        for (int j = cur.seek_pos();
             j < cur.entry_count() && cur.key(j) == from; ++j) {
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

// Second sweep: the opposite direction, bounded by the handicap value.
// `downward` collects entries with bound <= key < from; upward collects
// from < key <= bound. Keys equal to `from` were taken by the first sweep.
Status DualIndex::SweepSecond(BPlusTree* tree, double from, bool downward,
                              double bound, std::vector<TupleId>* out,
                              QueryStats* stats, const QueryContext* ctx) {
  LeafCursor cur;
  CDB_RETURN_IF_ERROR(tree->SeekLeaf(from, &cur));
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
        if (cur.key(j) == from) continue;  // First sweep owns these.
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

// --- Exact (restricted) execution ---------------------------------------------

Status DualIndex::RunExact(const AppQuery& aq, std::vector<TupleId>* out,
                           QueryStats* stats, const QueryContext* ctx) {
  CDB_TRACE_SPAN("sweep/exact");
  // Section 3 mapping: B^up serves EXIST(q(>=)) and ALL(q(<=)); B^down
  // serves ALL(q(>=)) and EXIST(q(<=)). Sweep direction follows θ.
  BPlusTree* tree;
  bool upward;
  if (aq.type == SelectionType::kExist) {
    tree = aq.cmp == Cmp::kGE ? up_[aq.slope_index].get()
                              : down_[aq.slope_index].get();
  } else {
    tree = aq.cmp == Cmp::kGE ? down_[aq.slope_index].get()
                              : up_[aq.slope_index].get();
  }
  upward = aq.cmp == Cmp::kGE;
  return SweepCollect(tree, aq.intercept, upward, /*slot=*/-1, out,
                      /*handicap_bound=*/nullptr, stats, ctx);
}

// --- T1 -----------------------------------------------------------------------

Result<std::vector<TupleId>> DualIndex::SelectT1(SelectionType type,
                                                 const HalfPlaneQuery& q,
                                                 QueryStats* stats,
                                                 const QueryContext* ctx) {
  AppQueryPlan plan = PlanAppQueries(slopes_, type, q, options_.anchor_x);
  std::vector<TupleId> ids;
  if (plan.exact) {
    CDB_RETURN_IF_ERROR(RunExact(plan.exact_query, &ids, stats, ctx));
    std::sort(ids.begin(), ids.end());
    // Exact sweep, no refinement: every candidate is an early accept.
    if (stats != nullptr) stats->filter.early_accepts += ids.size();
    return ids;
  }
  {
    CDB_TRACE_SPAN("filter");
    for (const AppQuery& aq : plan.queries) {
      CDB_RETURN_IF_ERROR(RunExact(aq, &ids, stats, ctx));
    }
    std::sort(ids.begin(), ids.end());
    size_t before = ids.size();
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    if (stats != nullptr) {
      stats->duplicates += before - ids.size();
      stats->filter.dedup_dropped += before - ids.size();
    }
  }
  CDB_RETURN_IF_ERROR(Refine(type, q, &ids, stats, ctx));
  return ids;
}

// --- T2 -----------------------------------------------------------------------

Result<std::vector<TupleId>> DualIndex::SelectT2(SelectionType type,
                                                 const HalfPlaneQuery& q,
                                                 QueryStats* stats,
                                                 const QueryContext* ctx) {
  SlopeLocation loc = slopes_.Locate(q.slope);
  if (loc.kind == SlopeLocation::Kind::kExact) {
    std::vector<TupleId> ids;
    CDB_RETURN_IF_ERROR(
        RunExact({loc.index, type, q.cmp, q.intercept}, &ids, stats, ctx));
    std::sort(ids.begin(), ids.end());
    if (stats != nullptr) stats->filter.early_accepts += ids.size();
    return ids;
  }
  if (loc.kind != SlopeLocation::Kind::kBetween || slopes_.size() < 2) {
    // Wrap-around region: the single-tree trick needs a same-surface
    // neighbour interval; fall back to T1 (DESIGN.md decision 4).
    if (stats != nullptr) stats->used_wrap_fallback = true;
    return SelectT1(type, q, stats, ctx);
  }

  // Query slope lies in (s_i, s_{i+1}); use the nearer tree and the
  // handicaps computed for the half-interval on that side.
  size_t i = loc.index;
  double left = slopes_.slope(i), right = slopes_.slope(i + 1);
  size_t nearest = (q.slope - left <= right - q.slope) ? i : i + 1;
  bool next_side = nearest == i;  // Query is on tree `nearest`'s next side
                                  // when the nearest slope is the left one.
  const double b = q.intercept;

  BPlusTree* tree;
  bool sweep_up;  // Direction of the first sweep.
  int slot;
  if (type == SelectionType::kExist) {
    if (q.cmp == Cmp::kGE) {
      tree = up_[nearest].get();
      sweep_up = true;
      slot = LowSlot(next_side);
    } else {
      tree = down_[nearest].get();
      sweep_up = false;
      slot = HighSlot(next_side);
    }
  } else {
    if (q.cmp == Cmp::kGE) {
      tree = down_[nearest].get();
      sweep_up = true;
      slot = LowSlot(next_side);
    } else {
      tree = up_[nearest].get();
      sweep_up = false;
      slot = HighSlot(next_side);
    }
  }

  std::vector<TupleId> ids;
  double bound = 0.0;
  bool have_bound = true;
  {
    CDB_TRACE_SPAN("filter");
    {
      CDB_TRACE_SPAN("sweep/first");
      if (options_.incremental_handicaps) {
        // Augmented tree: the first sweep reads no handicaps at all ...
        CDB_RETURN_IF_ERROR(SweepCollect(tree, b, sweep_up, /*slot=*/-1, &ids,
                                         /*handicap_bound=*/nullptr, stats,
                                         ctx));
      } else {
        CDB_RETURN_IF_ERROR(
            SweepCollect(tree, b, sweep_up, slot, &ids, &bound, stats, ctx));
      }
    }
    if (options_.incremental_handicaps) {
      // ... the bound comes from one aggregate descent instead.
      CDB_TRACE_SPAN("sweep/bound");
      CDB_RETURN_IF_ERROR(tree->SecondSweepBound(slot, b, &have_bound, &bound));
    }
    if (have_bound && (sweep_up ? bound < b : bound > b)) {
      CDB_TRACE_SPAN("sweep/second");
      CDB_RETURN_IF_ERROR(SweepSecond(tree, b, /*downward=*/sweep_up, bound,
                                      &ids, stats, ctx));
    }
    std::sort(ids.begin(), ids.end());
  }
  CDB_RETURN_IF_ERROR(Refine(type, q, &ids, stats, ctx));
  return ids;
}

// --- Refinement ----------------------------------------------------------------

Status DualIndex::Refine(SelectionType type, const HalfPlaneQuery& q,
                         std::vector<TupleId>* ids, QueryStats* stats,
                         const QueryContext* ctx) {
  if (!options_.refine) {
    // Raw-superset mode: the post-dedup candidates ship as results
    // untested, so the filter accounting books them as early accepts.
    if (stats != nullptr) stats->filter.early_accepts += ids->size();
    return Status::OK();
  }
  static obs::Counter* const lp_calls =
      obs::GlobalMetrics().counter("dual.refine.lp_calls");
  obs::FilterCounts local_filter;
  uint64_t local_false_hits = 0;
  return RefineBatch2D(
      *relation_, type, q, lp_calls, ctx, ids,
      stats != nullptr ? &stats->filter : &local_filter,
      stats != nullptr ? &stats->false_hits : &local_false_hits);
}

// --- Explain -------------------------------------------------------------------

namespace {

std::string DescribeExact(const SlopeSet& slopes, const AppQuery& aq) {
  const char* tree = (aq.type == SelectionType::kExist) ==
                             (aq.cmp == Cmp::kGE)
                         ? "B^up"
                         : "B^down";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s(%s) on %s[slope=%g]: seek b=%g, sweep %s",
                aq.type == SelectionType::kAll ? "ALL" : "EXIST",
                aq.cmp == Cmp::kGE ? ">=" : "<=", tree,
                slopes.slope(aq.slope_index), aq.intercept,
                aq.cmp == Cmp::kGE ? "upward" : "downward");
  return buf;
}

}  // namespace

std::string DualIndex::Explain(SelectionType type, const HalfPlaneQuery& q,
                               QueryMethod method) const {
  char head[160];
  std::snprintf(head, sizeof(head), "%s(y %s %g*x + %g) via %s\n",
                type == SelectionType::kAll ? "ALL" : "EXIST",
                q.cmp == Cmp::kGE ? ">=" : "<=", q.slope, q.intercept,
                method == QueryMethod::kRestricted ? "restricted"
                : method == QueryMethod::kT1       ? "T1"
                : method == QueryMethod::kT2       ? "T2"
                                                   : "auto");
  std::string out = head;
  SlopeLocation loc = slopes_.Locate(q.slope);

  if (loc.kind == SlopeLocation::Kind::kExact) {
    out += "  exact: " +
           DescribeExact(slopes_, {loc.index, type, q.cmp, q.intercept}) +
           "\n  no refinement needed\n";
    return out;
  }
  if (method == QueryMethod::kRestricted) {
    out += "  ERROR: slope not in S\n";
    return out;
  }

  bool use_t1 = method == QueryMethod::kT1;
  if (!use_t1 && (loc.kind != SlopeLocation::Kind::kBetween ||
                  slopes_.size() < 2)) {
    out += "  slope outside [min S, max S]: T2 falls back to T1\n";
    use_t1 = true;
  }
  if (use_t1) {
    AppQueryPlan plan = PlanAppQueries(slopes_, type, q, options_.anchor_x);
    for (const AppQuery& aq : plan.queries) {
      out += "  app-query: " + DescribeExact(slopes_, aq) + "\n";
    }
    out += "  deduplicate ids, refine candidates by exact LP predicate\n";
    return out;
  }

  size_t i = loc.index;
  double left = slopes_.slope(i), right = slopes_.slope(i + 1);
  size_t nearest = (q.slope - left <= right - q.slope) ? i : i + 1;
  bool next_side = nearest == i;
  const char* tree;
  const char* dir;
  if ((type == SelectionType::kExist) == (q.cmp == Cmp::kGE)) {
    tree = "B^up";
  } else {
    tree = "B^down";
  }
  dir = q.cmp == Cmp::kGE ? "upward" : "downward";
  char body[256];
  std::snprintf(
      body, sizeof(body),
      "  T2: %s[slope=%g] (nearest), handicap side=%s\n"
      "  first sweep %s from b=%g collecting %s(q)\n"
      "  second sweep %s bounded by the handicap value\n"
      "  refine candidates by exact LP predicate\n",
      tree, slopes_.slope(nearest), next_side ? "next" : "prev", dir,
      q.intercept, q.cmp == Cmp::kGE ? "low" : "high",
      q.cmp == Cmp::kGE ? "downward" : "upward");
  out += body;
  return out;
}

// --- Entry point -----------------------------------------------------------------

Result<std::vector<TupleId>> DualIndex::Select(SelectionType type,
                                               const HalfPlaneQuery& q,
                                               QueryMethod method,
                                               QueryStats* stats,
                                               obs::ExplainProfile* profile,
                                               const QueryContext* ctx) {
  CDB_RETURN_IF_ERROR(ValidateHalfPlaneQuery(q));
  if (slope_observer_ != nullptr) slope_observer_->Observe(q.slope);
  QueryStats local;
  QueryStats* st = stats != nullptr ? stats : &local;
  *st = QueryStats();
  // All index/tuple page accesses from here on are attributed to the span
  // tree; QueryStats totals are read back from the tracer so there is a
  // single accounting mechanism (no manual snapshot diffs, no double
  // counting).
  obs::Tracer tracer("dual/select", pager_, relation_->pager());

  Result<std::vector<TupleId>> result = [&]() -> Result<std::vector<TupleId>> {
    switch (method) {
      case QueryMethod::kRestricted: {
        SlopeLocation loc = slopes_.Locate(q.slope);
        if (loc.kind != SlopeLocation::Kind::kExact) {
          return Status::InvalidArgument(
              "restricted method requires the query slope to be in S");
        }
        std::vector<TupleId> ids;
        Status s =
            RunExact({loc.index, type, q.cmp, q.intercept}, &ids, st, ctx);
        if (!s.ok()) return s;
        std::sort(ids.begin(), ids.end());
        st->filter.early_accepts += ids.size();
        return ids;
      }
      case QueryMethod::kT1:
        return SelectT1(type, q, st, ctx);
      case QueryMethod::kT2:
      case QueryMethod::kAuto:
        return SelectT2(type, q, st, ctx);
    }
    return Status::InvalidArgument("unknown query method");
  }();

  obs::PhaseCost totals = obs::FinishQueryTrace(&tracer, profile);
  st->index_page_fetches = totals.index_fetches;  // Logical (decision 11).
  st->tuple_page_fetches = totals.tuple_reads;    // Physical (decision 11).
  if (result.ok()) {
    st->results = result.value().size();
    st->filter.candidates = st->candidates;
    st->filter.results = st->results;
  } else {
    // Partial execution (deadline, cancellation, I/O failure): the phase
    // counts cover only the candidates actually processed; the rest are
    // booked as abandoned so the partition still balances.
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

Result<std::vector<TupleId>> DualIndex::SelectVertical(
    SelectionType type, const VerticalQuery& q, QueryStats* stats,
    obs::ExplainProfile* profile) {
  if (xmax_ == nullptr) {
    return Status::NotSupported(
        "vertical queries require DualIndexOptions::support_vertical");
  }
  if (std::isnan(q.boundary) || std::isinf(q.boundary)) {
    return Status::InvalidArgument("vertical boundary must be finite");
  }
  QueryStats local;
  QueryStats* st = stats != nullptr ? stats : &local;
  *st = QueryStats();
  obs::Tracer tracer("dual/select-vertical", pager_, relation_->pager());

  // Exact mapping on the x-extent support trees:
  //   EXIST(x >= c): max_x >= c  -> sweep xmax upward.
  //   EXIST(x <= c): min_x <= c  -> sweep xmin downward.
  //   ALL  (x >= c): min_x >= c  -> sweep xmin upward.
  //   ALL  (x <= c): max_x <= c  -> sweep xmax downward.
  BPlusTree* tree;
  if (type == SelectionType::kExist) {
    tree = q.cmp == Cmp::kGE ? xmax_.get() : xmin_.get();
  } else {
    tree = q.cmp == Cmp::kGE ? xmin_.get() : xmax_.get();
  }
  std::vector<TupleId> ids;
  {
    CDB_TRACE_SPAN("sweep/support");
    CDB_RETURN_IF_ERROR(SweepCollect(tree, q.boundary,
                                     /*upward=*/q.cmp == Cmp::kGE, /*slot=*/-1,
                                     &ids, nullptr, st, /*ctx=*/nullptr));
  }
  std::sort(ids.begin(), ids.end());
  st->index_page_fetches =
      obs::FinishQueryTrace(&tracer, profile).index_fetches;
  st->results = ids.size();
  // Exact support sweep: every candidate is a result.
  st->filter.candidates = st->candidates;
  st->filter.early_accepts = ids.size();
  st->filter.results = st->results;
  if (profile != nullptr) profile->filter = st->filter;
  return ids;
}

Result<std::vector<TupleId>> DualIndex::SelectSlab(
    SelectionType type, double slope, double b_lo, double b_hi,
    QueryStats* stats, obs::ExplainProfile* profile) {
  if (!(b_lo <= b_hi)) {
    return Status::InvalidArgument("slab requires b_lo <= b_hi");
  }
  SlopeLocation loc = slopes_.Locate(slope);
  if (loc.kind != SlopeLocation::Kind::kExact) {
    return Status::InvalidArgument("slab selection requires slope in S");
  }
  QueryStats local;
  QueryStats* st = stats != nullptr ? stats : &local;
  *st = QueryStats();
  obs::Tracer tracer("dual/select-slab", pager_, relation_->pager());

  const size_t i = loc.index;
  std::vector<TupleId> a, b;
  // ALL: BOT >= b_lo (upward sweep of B^down) ∩ TOP <= b_hi (downward
  // B^up). EXIST: TOP >= b_lo ∩ BOT <= b_hi.
  BPlusTree* lo_tree =
      type == SelectionType::kAll ? down_[i].get() : up_[i].get();
  BPlusTree* hi_tree =
      type == SelectionType::kAll ? up_[i].get() : down_[i].get();
  {
    CDB_TRACE_SPAN("sweep/lo-bound");
    CDB_RETURN_IF_ERROR(SweepCollect(lo_tree, b_lo, /*upward=*/true, -1, &a,
                                     nullptr, st, /*ctx=*/nullptr));
  }
  {
    CDB_TRACE_SPAN("sweep/hi-bound");
    CDB_RETURN_IF_ERROR(SweepCollect(hi_tree, b_hi, /*upward=*/false, -1, &b,
                                     nullptr, st, /*ctx=*/nullptr));
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<TupleId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  st->index_page_fetches =
      obs::FinishQueryTrace(&tracer, profile).index_fetches;
  st->results = out.size();
  // Exact set algebra over the two sweeps: candidates outside the
  // intersection drop like T1 duplicates, survivors are early accepts.
  st->filter.candidates = st->candidates;
  st->filter.dedup_dropped = st->candidates - out.size();
  st->filter.early_accepts = out.size();
  st->filter.results = st->results;
  if (profile != nullptr) profile->filter = st->filter;
  return out;
}

// --- Handicap rebuild ---------------------------------------------------------

Status DualIndex::CheckInvariants() const {
  for (size_t i = 0; i < up_.size(); ++i) {
    CDB_RETURN_IF_ERROR(up_[i]->CheckInvariants());
    CDB_RETURN_IF_ERROR(down_[i]->CheckInvariants());
  }
  if (xmax_ != nullptr) {
    CDB_RETURN_IF_ERROR(xmax_->CheckInvariants());
    CDB_RETURN_IF_ERROR(xmin_->CheckInvariants());
  }
  return Status::OK();
}

uint64_t DualIndex::handicap_staleness() const {
  uint64_t total = 0;
  for (const auto& tree : up_) total += tree->handicap_staleness();
  for (const auto& tree : down_) total += tree->handicap_staleness();
  return total;
}

void DualIndex::ExportStalenessMetrics() const {
  obs::GlobalMetrics()
      .gauge("dual.handicap.staleness")
      ->Set(static_cast<double>(handicap_staleness()));
}

Status DualIndex::RebuildHandicaps() {
  if (options_.incremental_handicaps) {
    // Compaction only: incremental maintenance keeps slots and aggregates
    // exact, but a full recompute is still the recovery path of last
    // resort (and what the staleness bench compares against).
    for (auto& tree : up_) CDB_RETURN_IF_ERROR(tree->RecomputeAugmented());
    for (auto& tree : down_) CDB_RETURN_IF_ERROR(tree->RecomputeAugmented());
    return Status::OK();
  }
  for (auto& tree : up_) CDB_RETURN_IF_ERROR(tree->ResetHandicaps());
  for (auto& tree : down_) CDB_RETURN_IF_ERROR(tree->ResetHandicaps());
  return relation_->ForEach(
      [&](TupleId, const GeneralizedTuple& tuple) -> Status {
        const size_t k = slopes_.size();
        for (size_t i = 0; i < k; ++i) {
          double top = tuple.Top(slopes_.slope(i));
          double bot = tuple.Bot(slopes_.slope(i));
          if (std::isnan(top) || std::isnan(bot)) break;  // Not indexed.
          if (i > 0) {
            CDB_RETURN_IF_ERROR(FoldHandicaps(i, i - 1, tuple, top, bot));
          }
          if (i + 1 < k) {
            CDB_RETURN_IF_ERROR(FoldHandicaps(i, i + 1, tuple, top, bot));
          }
        }
        return Status::OK();
      });
}

}  // namespace cdb
