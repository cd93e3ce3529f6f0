// Naive exact evaluation of ALL / EXIST selections by sequential scan.
//
// Serves two roles: the ground truth every index implementation is tested
// against, and the "no index" baseline in benchmarks. Each tuple costs one
// page fetch (through Relation::Get) plus two LP evaluations.

#ifndef CDB_CONSTRAINT_NAIVE_EVAL_H_
#define CDB_CONSTRAINT_NAIVE_EVAL_H_

#include <vector>

#include "common/result.h"
#include "constraint/relation.h"

namespace cdb {

/// Query type per Section 2 of the paper.
enum class SelectionType { kAll, kExist };

/// InvalidArgument for a NaN or infinite slope or a NaN intercept; OK
/// otherwise (an infinite intercept is a legal degenerate half-plane).
/// Every 2-D selection entry point — DualIndex::Select, the RTreeSelect
/// overloads and NaiveSelect — rejects a query through this one check.
Status ValidateHalfPlaneQuery(const HalfPlaneQuery& q);

/// Exact ALL(q, r) or EXIST(q, r) by scanning the relation. Results are in
/// ascending tuple-id order.
Result<std::vector<TupleId>> NaiveSelect(const Relation& relation,
                                         SelectionType type,
                                         const HalfPlaneQuery& query);

/// Vertical half-plane query: x θ boundary (paper footnote 4; not
/// expressible as y θ a*x + b).
struct VerticalQuery {
  double boundary = 0.0;
  Cmp cmp = Cmp::kGE;  // kGE: x >= boundary; kLE: x <= boundary.
};

/// Exact vertical ALL/EXIST predicates on one tuple, via the x-extent
/// support values (min/max of x over the extension, ±inf when unbounded).
bool ExactAllVertical(const std::vector<Constraint2D>& constraints,
                      const VerticalQuery& q);
bool ExactExistVertical(const std::vector<Constraint2D>& constraints,
                        const VerticalQuery& q);

/// Exact vertical selection by scanning the relation.
Result<std::vector<TupleId>> NaiveSelectVertical(const Relation& relation,
                                                 SelectionType type,
                                                 const VerticalQuery& query);

}  // namespace cdb

#endif  // CDB_CONSTRAINT_NAIVE_EVAL_H_
