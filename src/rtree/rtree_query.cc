#include "rtree/rtree_query.h"

#include "constraint/refine_batch.h"
#include "obs/metrics.h"

namespace cdb {

namespace {

template <typename Tree>
Result<std::vector<TupleId>> SelectImpl(Tree* tree, Relation* relation,
                                        SelectionType type,
                                        const HalfPlaneQuery& q,
                                        QueryStats* stats,
                                        obs::ExplainProfile* profile,
                                        const QueryContext* ctx) {
  CDB_RETURN_IF_ERROR(ValidateHalfPlaneQuery(q));
  QueryStats local;
  QueryStats* st = stats != nullptr ? stats : &local;
  *st = QueryStats();
  obs::Tracer tracer("rtree/select", tree->pager(), relation->pager());

  // The whole execution runs inside a lambda so every exit — including a
  // deadline/cancellation abort — flows through FinishQueryTrace and the
  // filter-accounting tail below.
  Result<std::vector<TupleId>> result = [&]() -> Result<std::vector<TupleId>> {
    RTreeStats rstats;
    Result<std::vector<TupleId>> candidates = [&] {
      CDB_TRACE_SPAN("filter");
      return tree->SearchHalfPlane(q, &rstats, ctx);
    }();
    if (!candidates.ok()) return candidates.status();
    st->candidates = candidates.value().size() + rstats.duplicates;
    st->duplicates = rstats.duplicates;
    st->filter.dedup_dropped = rstats.duplicates;

    static obs::Counter* const lp_calls =
        obs::GlobalMetrics().counter("rtree.refine.lp_calls");
    Status s = RefineBatch2D(*relation, type, q, lp_calls, ctx,
                             &candidates.value(), &st->filter,
                             &st->false_hits);
    if (!s.ok()) return {s};
    return std::move(candidates.value());
  }();

  obs::PhaseCost totals = obs::FinishQueryTrace(&tracer, profile);
  st->index_page_fetches = totals.index_fetches;  // Logical (decision 11).
  st->tuple_page_fetches = totals.tuple_reads;    // Physical (decision 11).
  if (result.ok()) {
    st->results = result.value().size();
    st->filter.candidates = st->candidates;
    st->filter.results = st->results;
  } else {
    // Early exit: a search-phase abort discards its partial candidate set
    // (st->candidates stays 0); a refine-phase abort leaves the untested
    // tail, booked as abandoned so the partition still balances.
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

}  // namespace

Result<std::vector<TupleId>> RTreeSelect(RPlusTree* tree, Relation* relation,
                                         SelectionType type,
                                         const HalfPlaneQuery& q,
                                         QueryStats* stats,
                                         obs::ExplainProfile* profile,
                                         const QueryContext* ctx) {
  return SelectImpl(tree, relation, type, q, stats, profile, ctx);
}

Result<std::vector<TupleId>> RTreeSelect(GuttmanRTree* tree,
                                         Relation* relation,
                                         SelectionType type,
                                         const HalfPlaneQuery& q,
                                         QueryStats* stats,
                                         obs::ExplainProfile* profile,
                                         const QueryContext* ctx) {
  return SelectImpl(tree, relation, type, q, stats, profile, ctx);
}

Result<std::vector<TupleId>> RTreeSelect(MxCifQuadtree* tree,
                                         Relation* relation,
                                         SelectionType type,
                                         const HalfPlaneQuery& q,
                                         QueryStats* stats,
                                         obs::ExplainProfile* profile,
                                         const QueryContext* ctx) {
  return SelectImpl(tree, relation, type, q, stats, profile, ctx);
}

}  // namespace cdb
