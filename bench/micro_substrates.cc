// E12 — google-benchmark micro suite for the substrates: LP evaluation
// (the TOP/BOT oracle), polyhedron construction, B+-tree operations, pager
// fetches and R+-tree search. These are the constants behind every number
// in the figure benches.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "btree/bplus_tree.h"
#include "harness.h"
#include "common/rng.h"
#include "geometry/dual.h"
#include "geometry/lpd.h"
#include "geometry/polyhedron2d.h"
#include "rtree/rplus_tree.h"
#include "storage/file.h"
#include "workload/generator.h"

namespace cdb {
namespace {

std::unique_ptr<Pager> MakePager(size_t frames = 64, bool checksums = true) {
  PagerOptions opts;
  opts.page_size = 1024;
  opts.cache_frames = frames;
  opts.checksums = checksums;
  std::unique_ptr<Pager> pager;
  if (!Pager::Open(std::make_unique<MemFile>(1024), opts, &pager).ok()) {
    std::abort();
  }
  return pager;
}

GeneralizedTuple SampleTuple(uint64_t seed) {
  Rng rng(seed);
  WorkloadOptions w;
  return RandomBoundedTuple(&rng, w);
}

void BM_TopValue(benchmark::State& state) {
  GeneralizedTuple t = SampleTuple(1);
  double slope = 0.37;
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopValue(t.constraints(), slope));
    slope += 1e-6;
  }
}
BENCHMARK(BM_TopValue);

void BM_TopValueD(benchmark::State& state) {
  Rng rng(2);
  size_t dim = static_cast<size_t>(state.range(0));
  GeneralizedTupleD t = RandomBoundedTupleD(&rng, dim, 50.0);
  std::vector<double> slope(dim - 1, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopValueD(t.constraints(), slope));
  }
}
BENCHMARK(BM_TopValueD)->Arg(2)->Arg(3)->Arg(4)->Arg(6);

void BM_PolyhedronFromConstraints(benchmark::State& state) {
  GeneralizedTuple t = SampleTuple(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Polyhedron2D::FromConstraints(t.constraints()));
  }
}
BENCHMARK(BM_PolyhedronFromConstraints);

void BM_TightAssignment(benchmark::State& state) {
  GeneralizedTuple t = SampleTuple(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxBotOverInterval(t.constraints(), -0.5, 0.5));
  }
}
BENCHMARK(BM_TightAssignment);

void BM_BTreeInsert(benchmark::State& state) {
  auto pager = MakePager();
  std::unique_ptr<BPlusTree> tree;
  if (!BPlusTree::Create(pager.get(), &tree).ok()) std::abort();
  Rng rng(5);
  uint32_t id = 0;
  for (auto _ : state) {
    if (!tree->Insert(rng.Uniform(-1e6, 1e6), id++).ok()) std::abort();
  }
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeSeek(benchmark::State& state) {
  auto pager = MakePager();
  std::unique_ptr<BPlusTree> tree;
  if (!BPlusTree::Create(pager.get(), &tree).ok()) std::abort();
  Rng rng(6);
  for (uint32_t i = 0; i < 50000; ++i) {
    if (!tree->Insert(rng.Uniform(-1e6, 1e6), i).ok()) std::abort();
  }
  for (auto _ : state) {
    LeafCursor cur;
    if (!tree->SeekLeaf(rng.Uniform(-1e6, 1e6), &cur).ok()) std::abort();
    benchmark::DoNotOptimize(cur.seek_pos());
  }
}
BENCHMARK(BM_BTreeSeek);

void BM_PagerFetchHit(benchmark::State& state) {
  auto pager = MakePager();
  Result<PageId> id = pager->Allocate();
  if (!id.ok()) std::abort();
  for (auto _ : state) {
    Result<PageRef> ref = pager->Fetch(id.value());
    benchmark::DoNotOptimize(ref.value().data());
  }
}
BENCHMARK(BM_PagerFetchHit);

void BM_PagerFetchMiss(benchmark::State& state) {
  auto pager = MakePager(/*frames=*/4);
  std::vector<PageId> ids;
  for (int i = 0; i < 64; ++i) {
    Result<PageId> id = pager->Allocate();
    if (!id.ok()) std::abort();
    ids.push_back(id.value());
  }
  size_t i = 0;
  for (auto _ : state) {
    Result<PageRef> ref = pager->Fetch(ids[i++ % ids.size()]);
    benchmark::DoNotOptimize(ref.value().data());
  }
}
BENCHMARK(BM_PagerFetchMiss);

// Checksummed vs raw fetch cost (durability-layer overhead). Arg: 1 =
// checksums on. Warm fetches never touch the CRC (verification happens on
// physical reads only), so the two variants must be within noise; cold
// fetches pay one CRC over the payload per miss.
void BM_PagerFetchWarmChecksummed(benchmark::State& state) {
  auto pager = MakePager(/*frames=*/64, /*checksums=*/state.range(0) != 0);
  Result<PageId> id = pager->Allocate();
  if (!id.ok()) std::abort();
  for (auto _ : state) {
    Result<PageRef> ref = pager->Fetch(id.value());
    benchmark::DoNotOptimize(ref.value().data());
  }
}
BENCHMARK(BM_PagerFetchWarmChecksummed)->Arg(0)->Arg(1);

void BM_PagerFetchColdChecksummed(benchmark::State& state) {
  auto pager = MakePager(/*frames=*/4, /*checksums=*/state.range(0) != 0);
  std::vector<PageId> ids;
  for (int i = 0; i < 64; ++i) {
    Result<PageId> id = pager->Allocate();
    if (!id.ok()) std::abort();
    ids.push_back(id.value());
  }
  if (!pager->Flush().ok()) std::abort();
  size_t i = 0;
  for (auto _ : state) {
    Result<PageRef> ref = pager->Fetch(ids[i++ % ids.size()]);
    benchmark::DoNotOptimize(ref.value().data());
  }
}
BENCHMARK(BM_PagerFetchColdChecksummed)->Arg(0)->Arg(1);

void BM_RTreeHalfPlaneSearch(benchmark::State& state) {
  auto pager = MakePager(256);
  Rng rng(7);
  std::vector<std::pair<Rect, TupleId>> rects;
  for (int i = 0; i < 5000; ++i) {
    double cx = rng.Uniform(-50, 50), cy = rng.Uniform(-50, 50);
    double h = rng.Uniform(0.5, 5);
    rects.push_back({Rect(cx - h, cy - h, cx + h, cy + h),
                     static_cast<TupleId>(i)});
  }
  std::unique_ptr<RPlusTree> tree;
  if (!RPlusTree::BulkBuild(pager.get(), rects, &tree).ok()) std::abort();
  for (auto _ : state) {
    HalfPlaneQuery q(rng.Uniform(-2, 2), rng.Uniform(-30, 30), Cmp::kGE);
    benchmark::DoNotOptimize(tree->SearchHalfPlane(q));
  }
}
BENCHMARK(BM_RTreeHalfPlaneSearch);

void BM_WorkloadTupleGeneration(benchmark::State& state) {
  Rng rng(8);
  WorkloadOptions w;
  w.size = state.range(0) == 0 ? ObjectSize::kSmall : ObjectSize::kMedium;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RandomBoundedTuple(&rng, w));
  }
}
BENCHMARK(BM_WorkloadTupleGeneration)->Arg(0)->Arg(1);

// Hand-timed checksummed-vs-raw fetch comparison, emitted as explicit
// artifact rows so scripts/check_bench_json.py can assert the durability
// layer's warm-path overhead budget (<= 15%) on every run.
double TimeFetchLoopOnceNs(Pager* pager, const std::vector<PageId>& ids) {
  constexpr int kIters = 400000;
  size_t i = 0;
  auto start = std::chrono::steady_clock::now();
  for (int n = 0; n < kIters; ++n) {
    Result<PageRef> ref = pager->Fetch(ids[i++ % ids.size()]);
    benchmark::DoNotOptimize(ref.value().data());
  }
  auto end = std::chrono::steady_clock::now();
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                 .count()) /
         kIters;
}

// Interleaves the raw and checksummed timing reps so clock-speed drift hits
// both configurations equally; without this the ratio is dominated by
// whichever config happened to run during a slow phase.
void TimeFetchPairNs(Pager* raw, const std::vector<PageId>& raw_ids,
                     Pager* checked, const std::vector<PageId>& checked_ids,
                     double out[2]) {
  constexpr int kReps = 5;
  out[0] = out[1] = 1e18;
  TimeFetchLoopOnceNs(raw, raw_ids);  // Warm-up, untimed.
  TimeFetchLoopOnceNs(checked, checked_ids);
  for (int rep = 0; rep < kReps; ++rep) {
    out[0] = std::min(out[0], TimeFetchLoopOnceNs(raw, raw_ids));
    out[1] = std::min(out[1], TimeFetchLoopOnceNs(checked, checked_ids));
  }
}

void MeasureChecksumOverhead(bench::BenchReporter* out) {
  // Warm: one resident page, every fetch a buffer hit.
  std::unique_ptr<Pager> warm_pager[2];
  std::vector<PageId> warm_ids[2];
  for (int cs = 0; cs < 2; ++cs) {
    warm_pager[cs] = MakePager(/*frames=*/64, /*checksums=*/cs != 0);
    Result<PageId> id = warm_pager[cs]->Allocate();
    if (!id.ok()) std::abort();
    warm_ids[cs] = {id.value()};
  }
  double warm[2];
  TimeFetchPairNs(warm_pager[0].get(), warm_ids[0], warm_pager[1].get(),
                  warm_ids[1], warm);
  // Cold: 64 pages cycled through 4 frames, every fetch a physical read
  // (and a CRC verification when checksums are on).
  std::unique_ptr<Pager> cold_pager[2];
  std::vector<PageId> cold_ids[2];
  for (int cs = 0; cs < 2; ++cs) {
    cold_pager[cs] = MakePager(/*frames=*/4, /*checksums=*/cs != 0);
    for (int i = 0; i < 64; ++i) {
      Result<PageId> id = cold_pager[cs]->Allocate();
      if (!id.ok()) std::abort();
      cold_ids[cs].push_back(id.value());
    }
    if (!cold_pager[cs]->Flush().ok()) std::abort();
  }
  double cold[2];
  TimeFetchPairNs(cold_pager[0].get(), cold_ids[0], cold_pager[1].get(),
                  cold_ids[1], cold);
  for (int cs = 0; cs < 2; ++cs) {
    out->AddValue("pager_fetch_warm", {{"checksums", cs}}, "ns_per_fetch",
                  warm[cs]);
    out->AddValue("pager_fetch_cold", {{"checksums", cs}}, "ns_per_fetch",
                  cold[cs]);
  }
  out->AddValue("pager_fetch_warm", {}, "checksum_overhead_ratio",
                warm[1] / warm[0]);
  out->AddValue("pager_fetch_cold", {}, "checksum_overhead_ratio",
                cold[1] / cold[0]);
}

// Refinement-substrate row: ns and physical relation pages per candidate
// over a fig8-style dataset. scripts/check_bench_json.py requires it.
void MeasureRefineCost(bench::BenchReporter* out) {
  bench::DatasetConfig config;
  config.n = 2000;
  config.k = 3;
  config.build_rtree = false;
  bench::Dataset ds = bench::BuildDataset(config);
  Rng rng(41);
  auto qs = bench::MakeQueries(*ds.relation, SelectionType::kExist, 6, 0.10,
                               0.15, &rng);
  auto all = bench::MakeQueries(*ds.relation, SelectionType::kAll, 6, 0.10,
                                0.15, &rng);
  qs.insert(qs.end(), all.begin(), all.end());
  bench::ReportRefineRows(&ds, qs, out, {}, /*warm=*/false);
}

}  // namespace
}  // namespace cdb

namespace {

// Console output as usual, plus every per-iteration run captured into the
// JSON artifact (aggregates and errored runs are skipped).
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit CaptureReporter(cdb::bench::BenchReporter* out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      std::string name = run.benchmark_name();
      out_->AddValue(name, {}, "real_time", run.GetAdjustedRealTime());
      out_->AddValue(name, {}, "cpu_time", run.GetAdjustedCPUTime());
      out_->AddValue(name, {}, "iterations",
                     static_cast<double>(run.iterations));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  cdb::bench::BenchReporter* out_;
};

}  // namespace

// BENCHMARK_MAIN expanded by hand: BenchReporter must strip --json before
// benchmark::Initialize rejects it as an unknown flag.
int main(int argc, char** argv) {
  cdb::bench::BenchReporter reporter("micro_substrates", &argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CaptureReporter capture(&reporter);
  benchmark::RunSpecifiedBenchmarks(&capture);
  cdb::MeasureChecksumOverhead(&reporter);
  cdb::MeasureRefineCost(&reporter);
  benchmark::Shutdown();
  return reporter.Write() ? 0 : 1;
}
