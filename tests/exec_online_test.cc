// Ingest lane + accounting under failure (PR 4 tentpole, satellite 3).
//
// Part 1 (satellite 3): the PagerReadSession stats-merge audit, as a test.
// When a batch item dies mid-query on an injected Status::Corruption, its
// worker's session must still merge the *partial* IoStats delta into
// Pager::stats() on close — the global invariant
// page_fetches == buffer_hits + page_reads has to balance on every pager
// even though queries aborted between fetches.
//
// Part 2 (tentpole): RunBatchWithWriter interleaves an insert stream with
// a live query batch under single-writer/multi-reader mode. Publishes
// drain in-flight per-item read sessions, so every query executes against
// exactly one published prefix of the insert-only stream — which makes the
// results linearizable and cheap to verify: for each query,
// truth(before) ⊆ result ⊆ truth(after), and the result is downward-closed
// within truth(after) up to its largest id. Runs under `-L tsan`.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "constraint/naive_eval.h"
#include "exec/query_executor.h"
#include "pager_test_util.h"
#include "storage/file.h"
#include "workload/generator.h"

namespace cdb {
namespace {

constexpr size_t kThreads = 8;
constexpr uint64_t kSeed = 20260807;

std::unique_ptr<Pager> MakePager(std::unique_ptr<BlockFile> file,
                                 size_t cache_frames = 64) {
  PagerOptions opts;
  opts.page_size = 1024;
  opts.cache_frames = cache_frames;
  std::unique_ptr<Pager> pager;
  EXPECT_TRUE(Pager::Open(std::move(file), opts, &pager).ok());
  return pager;
}

std::vector<exec::BatchQuery> MakeBatch(size_t n, uint64_t seed,
                                        QueryMethod method) {
  Rng rng(seed);
  std::vector<exec::BatchQuery> batch;
  for (size_t i = 0; i < n; ++i) {
    exec::BatchQuery q;
    q.type = rng.Chance(0.5) ? SelectionType::kAll : SelectionType::kExist;
    q.query = HalfPlaneQuery(std::tan(rng.Uniform(-1.2, 1.2)),
                             rng.Uniform(-60, 60),
                             rng.Chance(0.5) ? Cmp::kGE : Cmp::kLE);
    q.method = method;
    batch.push_back(q);
  }
  return batch;
}

struct OnlineFixture {
  std::shared_ptr<MemFile> rel_file = std::make_shared<MemFile>(1024);
  std::unique_ptr<Pager> rel_pager;
  std::unique_ptr<Pager> idx_pager;
  std::unique_ptr<Relation> relation;
  std::unique_ptr<DualIndex> index;
  Rng rng{kSeed};
  WorkloadOptions wopts;

  explicit OnlineFixture(bool incremental, size_t n0 = 400) {
    rel_pager = MakePager(std::make_unique<SharedFile>(rel_file));
    idx_pager = MakePager(std::make_unique<MemFile>(1024));
    EXPECT_TRUE(
        Relation::Open(rel_pager.get(), kInvalidPageId, &relation).ok());
    for (size_t i = 0; i < n0; ++i) {
      EXPECT_TRUE(relation->Insert(RandomBoundedTuple(&rng, wopts)).ok());
    }
    SlopeSet slopes = SlopeSet::UniformInAngle(4, -1.3, 1.3);
    DualIndexOptions opts;
    opts.incremental_handicaps = incremental;
    EXPECT_TRUE(
        DualIndex::Build(idx_pager.get(), relation.get(), slopes, opts, &index)
            .ok());
    EXPECT_TRUE(rel_pager->Flush().ok());
  }

  ~OnlineFixture() {
    ExpectNoPinnedFrames(*rel_pager);
    ExpectNoPinnedFrames(*idx_pager);
  }

  std::vector<TupleId> Truth(SelectionType type, const HalfPlaneQuery& q) {
    Result<std::vector<TupleId>> r = NaiveSelect(*relation, type, q);
    EXPECT_TRUE(r.ok());
    return r.value_or({});
  }
};

void ExpectBalanced(const Pager& pager, const char* which) {
  const IoStats& s = pager.stats();
  EXPECT_EQ(s.page_fetches, s.buffer_hits + s.page_reads)
      << which << ": fetches " << s.page_fetches << " != hits "
      << s.buffer_hits << " + reads " << s.page_reads;
}

// Satellite 3: a mid-query Corruption abort must not leak any worker's
// partial stats delta.
TEST(ExecOnlineTest, FailedItemsStillBalanceGlobalAccounting) {
  OnlineFixture fx(/*incremental=*/false);
  std::vector<exec::BatchQuery> batch = MakeBatch(96, kSeed, QueryMethod::kAuto);

  // Corrupt every relation data block so refinement reads abort queries at
  // arbitrary points between fetches (block 0 is the meta page).
  ASSERT_TRUE(fx.rel_pager->DropCache().ok());
  const size_t block_size = fx.rel_file->block_size();
  std::vector<char> block(block_size);
  const uint64_t blocks = fx.rel_file->BlockCount();
  ASSERT_GT(blocks, 1u);
  for (uint64_t b = 1; b < blocks; ++b) {
    ASSERT_TRUE(fx.rel_file->ReadBlock(b, block.data()).ok());
    block[block_size / 2] ^= 0x5a;
    ASSERT_TRUE(fx.rel_file->WriteBlock(b, block.data()).ok());
  }

  exec::QueryExecutor executor(kThreads);
  std::vector<exec::BatchItemResult> results;
  ASSERT_TRUE(executor.RunBatch(fx.index.get(), batch, &results).ok());

  size_t corrupted = 0;
  for (const exec::BatchItemResult& r : results) {
    if (!r.status.ok()) {
      EXPECT_TRUE(r.status.IsCorruption()) << r.status.ToString();
      ++corrupted;
    }
  }
  ASSERT_GE(corrupted, 1u) << "no query hit the injected corruption";

  // The audit's claim: sessions merged every partial delta, so the global
  // ledger balances on both pagers and the checksum failures were counted.
  ExpectBalanced(*fx.rel_pager, "relation pager");
  ExpectBalanced(*fx.idx_pager, "index pager");
  EXPECT_GE(fx.rel_pager->stats().checksum_failures, corrupted);
  EXPECT_FALSE(fx.rel_pager->concurrent_reads_active());
  EXPECT_FALSE(fx.idx_pager->concurrent_reads_active());
}

// Tentpole: queries and an insert stream share the index; every query
// result must correspond to a published prefix of the stream.
TEST(ExecOnlineTest, ConcurrentWriterIngestIsLinearizable) {
  OnlineFixture fx(/*incremental=*/true);
  constexpr size_t kInserts = 200;
  constexpr size_t kPublishEvery = 25;
  std::vector<exec::BatchQuery> batch = MakeBatch(96, kSeed + 1,
                                                  QueryMethod::kT2);

  // Pre-generate the stream (the writer must not race the fixture Rng) and
  // the pre-ingest truth for every query.
  std::vector<GeneralizedTuple> stream;
  for (size_t i = 0; i < kInserts; ++i) {
    stream.push_back(RandomBoundedTuple(&fx.rng, fx.wopts));
  }
  std::vector<std::vector<TupleId>> truth_before;
  for (const exec::BatchQuery& q : batch) {
    truth_before.push_back(fx.Truth(q.type, q.query));
  }

  // Reserve directory capacity before entering single-writer mode.
  ASSERT_TRUE(fx.relation->BeginOnlineAppends(kInserts).ok());

  size_t inserted = 0;
  auto writer = [&]() -> Status {
    for (const GeneralizedTuple& t : stream) {
      Result<TupleId> id = fx.relation->Insert(t);
      if (!id.ok()) return id.status();
      CDB_RETURN_IF_ERROR(fx.index->Insert(id.value(), t));
      ++inserted;
      if (inserted % kPublishEvery == 0) {
        // Publish order: tuple pages first, then the directory count that
        // makes them reachable, then the index pages that reference them.
        CDB_RETURN_IF_ERROR(fx.rel_pager->Flush());
        fx.relation->PublishAppends();
        CDB_RETURN_IF_ERROR(fx.idx_pager->Flush());
      }
    }
    return Status::OK();
  };

  exec::QueryExecutor executor(kThreads);
  std::vector<exec::BatchItemResult> results;
  ASSERT_TRUE(
      executor.RunBatchWithWriter(fx.index.get(), batch, &results, writer)
          .ok());
  ASSERT_EQ(inserted, kInserts);
  ASSERT_TRUE(exec::FirstError(results).ok())
      << exec::FirstError(results).ToString();

  // Post-run state is exact: invariants hold, handicaps never went stale,
  // and serial queries see all inserts.
  ASSERT_TRUE(fx.index->CheckInvariants().ok());
  EXPECT_EQ(fx.index->handicap_staleness(), 0u);
  for (size_t i = 0; i < batch.size(); ++i) {
    const std::vector<TupleId> truth_after =
        fx.Truth(batch[i].type, batch[i].query);
    Result<std::vector<TupleId>> serial =
        fx.index->Select(batch[i].type, batch[i].query, QueryMethod::kT2);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(serial.value(), truth_after) << "post-run query " << i;

    // Linearizability of the concurrent result: publishes only happen
    // between items, so result == truth over some published prefix.
    const std::vector<TupleId>& got = results[i].ids;
    for (TupleId id : truth_before[i]) {
      ASSERT_TRUE(std::binary_search(got.begin(), got.end(), id))
          << "query " << i << " missed pre-ingest tuple " << id;
    }
    for (TupleId id : got) {
      ASSERT_TRUE(
          std::binary_search(truth_after.begin(), truth_after.end(), id))
          << "query " << i << " returned tuple " << id << " not in truth";
    }
    if (!got.empty()) {
      // Downward closure: every matching id at or below the largest
      // returned id was already published, so it must be present.
      for (TupleId id : truth_after) {
        if (id > got.back()) break;
        ASSERT_TRUE(std::binary_search(got.begin(), got.end(), id))
            << "query " << i << " skipped tuple " << id
            << " below its own horizon " << got.back();
      }
    }
  }
  EXPECT_FALSE(fx.rel_pager->concurrent_reads_active());
  EXPECT_FALSE(fx.idx_pager->concurrent_reads_active());
  ExpectBalanced(*fx.rel_pager, "relation pager");
  ExpectBalanced(*fx.idx_pager, "index pager");
}

TEST(ExecOnlineTest, WriterCapacityAndDeleteGuards) {
  OnlineFixture fx(/*incremental=*/true, /*n0=*/120);
  std::vector<exec::BatchQuery> batch = MakeBatch(16, kSeed + 2,
                                                  QueryMethod::kT2);

  std::vector<GeneralizedTuple> stream;
  for (size_t i = 0; i < 8; ++i) {
    stream.push_back(RandomBoundedTuple(&fx.rng, fx.wopts));
  }
  ASSERT_TRUE(fx.relation->BeginOnlineAppends(4).ok());

  Status saw_capacity, saw_delete;
  auto writer = [&]() -> Status {
    // Deletes are rejected outright while serving online.
    saw_delete = fx.relation->Delete(0);
    for (const GeneralizedTuple& t : stream) {
      Result<TupleId> id = fx.relation->Insert(t);
      if (!id.ok()) {
        saw_capacity = id.status();
        return id.status();  // Surface the writer's failure.
      }
      CDB_RETURN_IF_ERROR(fx.index->Insert(id.value(), t));
    }
    return Status::OK();
  };

  exec::QueryExecutor executor(kThreads);
  std::vector<exec::BatchItemResult> results;
  Status st = executor.RunBatchWithWriter(fx.index.get(), batch, &results,
                                          writer);
  // The writer's error is the batch's error; the queries themselves ran.
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_TRUE(saw_capacity.IsInvalidArgument());
  EXPECT_TRUE(saw_delete.IsInvalidArgument());
  EXPECT_TRUE(exec::FirstError(results).ok());

  // Exclusive mode is restored: the 4 reserved inserts landed, deletes
  // work again, and the index still validates.
  EXPECT_FALSE(fx.rel_pager->concurrent_reads_active());
  EXPECT_EQ(fx.relation->size(), 120u + 4u);
  ASSERT_TRUE(fx.index->CheckInvariants().ok());
  GeneralizedTuple t0;
  ASSERT_TRUE(fx.relation->Get(0, &t0).ok());
  ASSERT_TRUE(fx.index->Remove(0, t0).ok());
  ASSERT_TRUE(fx.relation->Delete(0).ok());
}

// Bounding-box early decisions under a parallel batch: with the sidecar
// enabled, refinement books some accepts as early_accepts and skips their
// fetches, on eight workers at once. Every query must still match the
// NaiveSelect truth with balanced FilterCounts; TSan proves the workers'
// concurrent sidecar reads are clean.
TEST(ExecOnlineTest, BoxDecidedRefinementMatchesTruthAcrossThreads) {
  OnlineFixture fx(/*incremental=*/false, /*n0=*/250);
  ASSERT_TRUE(fx.relation->EnableBoundingBoxCache().ok());
  std::vector<exec::BatchQuery> batch = MakeBatch(64, kSeed + 4,
                                                  QueryMethod::kT2);
  std::vector<std::vector<TupleId>> truth;
  for (const exec::BatchQuery& q : batch) {
    truth.push_back(fx.Truth(q.type, q.query));
  }

  exec::QueryExecutor executor(kThreads);
  for (int round = 0; round < 4; ++round) {
    std::vector<exec::BatchItemResult> results;
    ASSERT_TRUE(executor.RunBatch(fx.index.get(), batch, &results).ok());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok()) << results[i].status.ToString();
      EXPECT_EQ(results[i].ids, truth[i]) << "round " << round << " query "
                                          << i;
      EXPECT_TRUE(results[i].stats.filter.Balances())
          << "round " << round << " query " << i;
    }
  }
}

// ISSUE 9 satellite 2: the bounding-box sidecar on the live-append path.
// Readers consult CachedBoundingBox from refinement worker threads while
// the writer appends slots and publishes; ids past either published bound
// must read as "no box" (never an out-of-bounds or torn mirror read), and
// slots become visible exactly at PublishAppends. TSan proves the mirror
// is never read while it reallocates or grows.
TEST(ExecOnlineTest, BboxSidecarLiveAppendsNeverServeStaleBoxes) {
  OnlineFixture fx(/*incremental=*/true, /*n0=*/250);
  ASSERT_TRUE(fx.relation->EnableBoundingBoxCache().ok());

  // Out-of-range probes in exclusive mode: past-the-end ids are "no box".
  Rect box;
  EXPECT_TRUE(fx.relation->CachedBoundingBox(0, &box));
  EXPECT_FALSE(fx.relation->CachedBoundingBox(
      static_cast<TupleId>(fx.relation->size()), &box));
  EXPECT_FALSE(fx.relation->CachedBoundingBox(1u << 20, &box));

  constexpr size_t kInserts = 200;
  constexpr size_t kPublishEvery = 25;
  std::vector<exec::BatchQuery> batch = MakeBatch(96, kSeed + 5,
                                                  QueryMethod::kT2);
  std::vector<GeneralizedTuple> stream;
  for (size_t i = 0; i < kInserts; ++i) {
    stream.push_back(RandomBoundedTuple(&fx.rng, fx.wopts));
  }
  std::vector<std::vector<TupleId>> truth_before;
  for (const exec::BatchQuery& q : batch) {
    truth_before.push_back(fx.Truth(q.type, q.query));
  }

  ASSERT_TRUE(fx.relation->BeginOnlineAppends(kInserts).ok());
  size_t inserted = 0;
  auto writer = [&]() -> Status {
    for (const GeneralizedTuple& t : stream) {
      Result<TupleId> id = fx.relation->Insert(t);
      if (!id.ok()) return id.status();
      CDB_RETURN_IF_ERROR(fx.index->Insert(id.value(), t));
      ++inserted;
      if (inserted % kPublishEvery == 0) {
        CDB_RETURN_IF_ERROR(fx.rel_pager->Flush());
        fx.relation->PublishAppends();
        CDB_RETURN_IF_ERROR(fx.idx_pager->Flush());
      }
    }
    return Status::OK();
  };

  exec::QueryExecutor executor(kThreads);
  std::vector<exec::BatchItemResult> results;
  ASSERT_TRUE(
      executor.RunBatchWithWriter(fx.index.get(), batch, &results, writer)
          .ok());
  ASSERT_EQ(inserted, kInserts);
  ASSERT_TRUE(exec::FirstError(results).ok())
      << exec::FirstError(results).ToString();

  // Box decisions are proofs, so racing them never changes linearizability:
  // truth(before) ⊆ result ⊆ truth(after), downward-closed.
  for (size_t i = 0; i < batch.size(); ++i) {
    const std::vector<TupleId> truth_after =
        fx.Truth(batch[i].type, batch[i].query);
    const std::vector<TupleId>& got = results[i].ids;
    EXPECT_TRUE(results[i].stats.filter.Balances()) << "query " << i;
    for (TupleId id : truth_before[i]) {
      ASSERT_TRUE(std::binary_search(got.begin(), got.end(), id))
          << "query " << i << " missed pre-ingest tuple " << id;
    }
    for (TupleId id : got) {
      ASSERT_TRUE(
          std::binary_search(truth_after.begin(), truth_after.end(), id))
          << "query " << i << " accepted tuple " << id
          << " not in truth (stale box?)";
    }
    if (!got.empty()) {
      for (TupleId id : truth_after) {
        if (id > got.back()) break;
        ASSERT_TRUE(std::binary_search(got.begin(), got.end(), id))
            << "query " << i << " skipped tuple " << id;
      }
    }
  }

  // Every appended tuple's slot is visible (and correct) after the final
  // publish; past-the-end stays "no box".
  for (size_t i = 0; i < kInserts; ++i) {
    const TupleId id = static_cast<TupleId>(250 + i);
    Rect expect;
    ASSERT_TRUE(stream[i].GetBoundingRect(&expect));
    Rect got_box;
    ASSERT_TRUE(fx.relation->CachedBoundingBox(id, &got_box))
        << "appended tuple " << id << " has no published box";
    EXPECT_EQ(got_box.xlo, expect.xlo);
    EXPECT_EQ(got_box.yhi, expect.yhi);
  }
  EXPECT_FALSE(fx.relation->CachedBoundingBox(
      static_cast<TupleId>(fx.relation->size()), &box));
  ASSERT_TRUE(fx.index->CheckInvariants().ok());
}

}  // namespace
}  // namespace cdb
