// Shared candidate-batch refiner.
//
// Every query family — dual T1/T2, the d-dimensional index, the R-tree
// baselines — ends its filter step with the same tail: fetch each surviving
// candidate tuple, run the exact LP predicate, book the outcome into
// FilterCounts. This module is that tail, in exactly one place, with three
// composable optimizations over a per-candidate fetch loop:
//
//  (a) page clustering — candidates arrive in ascending TupleId order,
//      which is physical page-chain order for an append-only relation, so
//      consecutive candidates cluster on the same tuple page. The refiner
//      pins each distinct page once and refines every candidate clustered
//      on it while pinned, turning O(candidates) logical fetches into
//      O(distinct pages) and moving QueryContext checkpoints to page
//      granularity.
//  (b) SoA kernels — each tuple's constraints are normalized once into
//      contiguous arrays (geometry/lp2d.h NormSoa2D) and the sign tests run
//      as flat autovectorizable loops, decision-identical to the
//      ExactAll/ExactExist predicates NaiveSelect runs (DESIGN.md §2h).
//  (c) bounding-box early-accept — when the relation carries an AABB
//      sidecar (Relation::EnableBoundingBoxCache), candidates the box
//      already proves are decided without fetching the tuple at all:
//      ALL-accepts book as FilterCounts::early_accepts, EXIST-rejects as
//      refine_rejects, and FilterCounts::Balances() holds unchanged.
//
// There is no second refinement path: NaiveSelect is the reference every
// differential test and bench check compares against.

#ifndef CDB_CONSTRAINT_REFINE_BATCH_H_
#define CDB_CONSTRAINT_REFINE_BATCH_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/query_context.h"
#include "common/status.h"
#include "constraint/naive_eval.h"
#include "constraint/relation.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cdb {

/// Refines the ascending, deduplicated candidate ids in `ids` in place:
/// on success `ids` holds the accepted ids, still ascending. `lp_calls` is
/// the per-family LP counter ("dual.refine.lp_calls" etc. — box-decided
/// candidates never increment it); `filter` receives the
/// early_accepts/refine_accepts/refine_rejects booking and `false_hits`
/// the rejected count. On error `ids` is left untouched and the caller
/// books the unprocessed tail as FilterCounts::abandoned.
Status RefineBatch2D(const Relation& relation, SelectionType type,
                     const HalfPlaneQuery& q, obs::Counter* lp_calls,
                     const QueryContext* ctx, std::vector<TupleId>* ids,
                     obs::FilterCounts* filter, uint64_t* false_hits);

/// The page-clustered refinement loop every family runs: refines the
/// ascending, deduplicated `ids` in place with `pred(tuple)`, the exact
/// predicate on the fetched tuple, counted in `lp_calls`. Same booking and
/// error contract as RefineBatch2D. Callers open the "refine" trace span
/// and count their candidates in "refine.batch.candidates".
template <typename RelationT, typename TupleT, typename Pred>
Status RefinePageClustered(const RelationT& relation, obs::Counter* lp_calls,
                           const QueryContext* ctx, std::vector<TupleId>* ids,
                           obs::FilterCounts* filter, uint64_t* false_hits,
                           const Pred& pred) {
  static obs::Counter* const batch_pages =
      obs::GlobalMetrics().counter("refine.batch.pages");

  std::vector<TupleId> kept;
  kept.reserve(ids->size());
  std::optional<PageRef> page;
  PageId pinned = kInvalidPageId;
  for (TupleId id : *ids) {
    // Ascending ids cluster into consecutive page runs; pin each run's page
    // once. Checkpoints fire at page granularity.
    PageId pid;
    CDB_RETURN_IF_ERROR(relation.LocateTuple(id, &pid));
    if (!page.has_value() || pid != pinned) {
      page.reset();  // Unpin before the page-granularity checkpoint.
      CDB_RETURN_IF_ERROR(CheckQueryContext(ctx));
      Result<PageRef> ref = [&] {
        CDB_TRACE_SPAN("fetch-page");
        return relation.pager()->Fetch(pid);
      }();
      if (!ref.ok()) return ref.status();
      page.emplace(std::move(ref.value()));
      pinned = pid;
      batch_pages->Increment();
    }
    TupleT tuple;
    CDB_RETURN_IF_ERROR(relation.GetFromPage(*page, id, &tuple));
    CDB_TRACE_SPAN("lp");
    lp_calls->Increment();
    if (pred(tuple)) {
      kept.push_back(id);
      ++filter->refine_accepts;
    } else {
      ++*false_hits;
      ++filter->refine_rejects;
    }
  }
  *ids = std::move(kept);
  return Status::OK();
}

}  // namespace cdb

#endif  // CDB_CONSTRAINT_REFINE_BATCH_H_
