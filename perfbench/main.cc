// Repository benchmark program.
//
// Builds one workload's database from a seed, drives it only through the
// library's public calls (DualIndex, exec::QueryExecutor, exec::IngestQueue,
// RefineBatch2D, BPlusTree, Pager, geometry/dual.h), checks every answer,
// and prints the raw measurements as one JSON object on stdout. run.py turns
// them into the named metrics (see README.md for the workloads and the
// metric-to-layer map).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Exit codes: 0 = measured (the JSON says whether every check passed),
// 2 = usage or environment error (no JSON printed).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <pthread.h>
#include <sched.h>

#include "btree/bplus_tree.h"
#include "common/rng.h"
#include "constraint/naive_eval.h"
#include "constraint/refine_batch.h"
#include "constraint/relation.h"
#include "dualindex/dual_index.h"
#include "exec/ingest_queue.h"
#include "exec/query_executor.h"
#include "geometry/dual.h"
#include "obs/json.h"
#include "obs/latency.h"
#include "obs/metrics.h"
#include "obs/pipeline.h"
#include "obs/trace.h"
#include "storage/file.h"
#include "storage/pager.h"
#include "workload/generator.h"

namespace cdb {
namespace perfbench {
namespace {

// --- Fixed workload shape ----------------------------------------------------
//
// N = 12000 small objects and k = 3 are the fig8 headline configuration;
// 1 KiB pages as in the paper. Query slopes share the slope set's angle band
// (|angle| <= 0.9, bench/harness.cc AngleRange) and selectivity is the
// paper's 10-15 % band.
constexpr int kTuples = 12000;
constexpr size_t kSlopeCount = 3;
constexpr double kAngle = 0.9;
constexpr int kQueries = 128;  // Half EXIST, half ALL.
constexpr double kSelLo = 0.10;
constexpr double kSelHi = 0.15;
constexpr int kSetupRepeats = 3;
constexpr size_t kMaxGroup = 64;
constexpr size_t kDrainWindow = 256;  // Outstanding appends, drain phase.
constexpr size_t kReaders = 2;        // ingest-mixed reader threads.
constexpr int kComplementQueries = 16;
constexpr size_t kInsertProbe = 256;
// Appends generated for the drain phase per second of it; the phase ends
// early if the writer drains faster than this.
constexpr double kMaxDrainRate = 20000;

struct Workload {
  const char* name;
  size_t frames;       // Buffer-pool frames of each pager.
  bool exact;          // Slopes snapped to S, restricted search.
  bool incremental;    // DualIndexOptions::incremental_handicaps.
  bool mixed;          // Reader threads run beside the writer.
  double ingest_rate;  // Offered open-loop appends per second.
};

// Offered ingest rates are fixed numbers well below the measured closed-loop
// drain rate of each configuration (on ingest-mixed low enough for the
// writer to keep up beside the readers on a slow host), so a change to the
// write path shows as backlog and visibility latency, not as a moved target.
constexpr Workload kWorkloads[] = {
    {"t2-resident", 4096, false, false, false, 1500},
    {"t2-spilled", 64, false, false, false, 1200},
    {"exact-spilled", 64, true, false, false, 1200},
    {"ingest-mixed", 4096, false, true, true, 400},
};

// Share of --seconds given to each measured phase.
struct Phases {
  double serve = 0, batch = 0, open = 0, drain = 0, traced = 0;
};
Phases PhasesFor(const Workload& w, bool trace) {
  Phases p;
  if (trace) {
    p.traced = 0.45;
    p.batch = 0.15;
    p.open = w.mixed ? 0.25 : 0.2;
    p.drain = 0.15;
  } else if (w.mixed) {
    p.open = 0.7;
    p.drain = 0.3;
  } else {
    p.serve = 0.76;
    p.open = 0.15;
    p.drain = 0.09;
  }
  return p;
}

using SteadyClock = std::chrono::steady_clock;

double Seconds(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
SteadyClock::time_point After(double seconds) {
  return SteadyClock::now() + std::chrono::duration_cast<SteadyClock::duration>(
                                  std::chrono::duration<double>(seconds));
}
double Micros(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

[[noreturn]] void Die(const std::string& what, const Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(2);
}
void Must(const Status& st, const char* what) {
  if (!st.ok()) Die(what, st);
}

// Progress on stderr: phase name and seconds since the previous mark.
void Mark(const char* phase) {
  static SteadyClock::time_point last = SteadyClock::now();
  const auto now = SteadyClock::now();
  std::fprintf(stderr, "perfbench: %-12s %.3f s\n", phase, Seconds(last, now));
  last = now;
}

// Operations attempted and failed (wrong or failed answers, lost appends),
// plus broken accounting invariants. Any entry makes the run incorrect.
class Tally {
 public:
  void Pass() { attempted_.fetch_add(1); }
  void Fail(const std::string& why) {
    attempted_.fetch_add(1);
    failed_.fetch_add(1);
    Note(why);
  }
  void Check(bool ok, const std::string& why) {
    if (ok) {
      Pass();
    } else {
      Fail(why);
    }
  }
  void Guard(bool ok, const std::string& why) {
    if (ok) return;
    guard_failures_.fetch_add(1);
    Note("accounting: " + why);
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  uint64_t guard_failures() const { return guard_failures_.load(); }
  std::vector<std::string> notes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return notes_;
  }

 private:
  void Note(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    if (notes_.size() < 20) notes_.push_back(why);
  }
  std::atomic<uint64_t> attempted_{0}, failed_{0}, guard_failures_{0};
  mutable std::mutex mu_;
  std::vector<std::string> notes_;
};

void WriteNums(obs::JsonWriter* out, const char* key,
               const std::vector<double>& values) {
  out->Key(key).BeginArray();
  for (double v : values) out->Value(v);
  out->EndArray();
}

size_t WorkerCount() {
  size_t hw = std::thread::hardware_concurrency();
  return std::max<size_t>(1, std::min<size_t>(hw == 0 ? 1 : hw, 4));
}

// Runs fn(i) for i in [0, n) on up to WorkerCount() threads. Used only for
// untimed input preparation and checking.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < WorkerCount(); ++t) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  for (std::thread& th : threads) th.join();
}

// CPUs this process may run on, in order.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

// Binds the calling thread to allowed CPU number `slot` (modulo their
// count); a refused binding leaves it unbound.
void BindToCpu(size_t slot) {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot % cpus.size()], &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// Runs fn on a new thread bound to CPU `slot` and waits for it. Single-
// threaded phases run their slices on every CPU in turn, so one core that
// the host happens to load more does not decide a run's figure.
void OnCpu(size_t slot, const std::function<void()>& fn) {
  std::thread t([&] {
    BindToCpu(slot);
    fn();
  });
  t.join();
}

bool Qualifies(const GeneralizedTuple& t, SelectionType type,
               const HalfPlaneQuery& q) {
  return type == SelectionType::kAll ? ExactAll(t.constraints(), q)
                                     : ExactExist(t.constraints(), q);
}

// --- Inputs ------------------------------------------------------------------

std::vector<GeneralizedTuple> MakeTuples(uint64_t seed, size_t n) {
  Rng rng(seed);
  WorkloadOptions options;
  options.size = ObjectSize::kSmall;
  std::vector<GeneralizedTuple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(RandomBoundedTuple(&rng, options));
  }
  return out;
}

// Seeded permutation of 0..n-1 (visiting orders, stratum assignment).
std::vector<size_t> Permutation(size_t n, Rng* rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) {
    size_t j = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

struct Query {
  SelectionType type = SelectionType::kExist;
  HalfPlaneQuery q;
  QueryMethod method = QueryMethod::kT2;
};

// Selectivity-calibrated queries: the intercept sits at the quantile of the
// tuples' TOP/BOT values at the query slope that yields the drawn target
// selectivity (the rule of workload/query_gen.cc, evaluated over the
// generated tuples so no relation is needed). `exact` snaps every slope to
// a member of S; otherwise slopes are off S with probability one. Runs
// before set-up and outside every timed region.
std::vector<Query> MakeQueries(const std::vector<GeneralizedTuple>& tuples,
                               const SlopeSet& slopes, bool exact, int count,
                               Rng* rng) {
  // The mix is stratified so that it is the same across seeds up to
  // jitter: slopes come from one jittered angle per stratum of the band (S
  // itself when `exact`), each slope serves all four type x comparison
  // combinations, and target selectivities take one jittered value per
  // stratum of the band in a seeded order. Calibration then evaluates one
  // surface per pooled slope, not per query.
  std::vector<double> pool = slopes.slopes();
  if (!exact) {
    pool.clear();
    const int strata = (count + 3) / 4;
    const double width = 2 * kAngle / strata;
    for (int j = 0; j < strata; ++j) {
      pool.push_back(std::tan(-kAngle + (j + rng->Uniform(0, 1)) * width));
    }
  }
  std::vector<size_t> strata = Permutation(static_cast<size_t>(count), rng);
  std::vector<Query> qs(count);
  std::vector<double> targets(count);
  for (int i = 0; i < count; ++i) {
    Query& q = qs[i];
    q.type = i % 2 == 0 ? SelectionType::kExist : SelectionType::kAll;
    q.q.cmp = (i / 2) % 2 == 0 ? Cmp::kGE : Cmp::kLE;
    q.q.slope = pool[static_cast<size_t>(i / 4) % pool.size()];
    q.method = exact ? QueryMethod::kRestricted : QueryMethod::kT2;
    const double stratum =
        static_cast<double>(strata[i]) + rng->Uniform(0, 1);
    targets[i] = kSelLo + stratum * (kSelHi - kSelLo) / count;
  }
  // One surface evaluation per distinct (slope, surface) pair.
  std::map<std::pair<double, bool>, std::vector<double>> surfaces;
  for (const Query& q : qs) {
    bool use_top = (q.type == SelectionType::kExist) == (q.q.cmp == Cmp::kGE);
    surfaces[{q.q.slope, use_top}];
  }
  std::vector<std::pair<const std::pair<double, bool>, std::vector<double>>*>
      work;
  for (auto& entry : surfaces) work.push_back(&entry);
  ParallelFor(work.size(), [&](size_t i) {
    auto& [key, values] = *work[i];
    values.reserve(tuples.size());
    for (const GeneralizedTuple& t : tuples) {
      values.push_back(key.second ? TopValue(t.constraints(), key.first)
                                  : BotValue(t.constraints(), key.first));
    }
    std::sort(values.begin(), values.end());
  });
  for (int i = 0; i < count; ++i) {
    Query& q = qs[i];
    bool use_top = (q.type == SelectionType::kExist) == (q.q.cmp == Cmp::kGE);
    const std::vector<double>& values = surfaces[{q.q.slope, use_top}];
    const size_t n = values.size();
    size_t want = static_cast<size_t>(
        std::lround(targets[i] * static_cast<double>(n)));
    want = std::max<size_t>(1, std::min(want, n));
    double anchor = q.q.cmp == Cmp::kGE ? values[n - want] : values[want - 1];
    double nudge = 1e-6 * std::max(1.0, std::fabs(anchor));
    q.q.intercept = q.q.cmp == Cmp::kGE ? anchor - nudge : anchor + nudge;
  }
  return qs;
}

// --- Database ----------------------------------------------------------------

struct Db {
  std::unique_ptr<Pager> rel_pager;
  std::unique_ptr<Pager> idx_pager;
  std::unique_ptr<Relation> relation;
  std::unique_ptr<DualIndex> index;
};

// Journaled MemFile pagers: every group commit runs the journal protocol;
// the file sync it ends with is an in-memory no-op.
std::unique_ptr<Pager> OpenPager(size_t frames) {
  PagerOptions options;
  options.page_size = kDefaultPageSize;
  options.cache_frames = frames;
  std::unique_ptr<Pager> pager;
  Must(Pager::Open(std::make_unique<MemFile>(options.page_size),
                   std::make_unique<MemFile>(
                       Pager::JournalBlockSize(options.page_size)),
                   options, &pager),
       "pager open");
  return pager;
}

DualIndexOptions IndexOptions(const Workload& w) {
  DualIndexOptions o;
  o.incremental_handicaps = w.incremental;
  return o;
}

// Set-up: load the relation and build the index (the timed set-up cost).
void Setup(const Workload& w, const std::vector<GeneralizedTuple>& tuples,
           Db* db, double* setup_s, double* build_s) {
  *db = Db();
  auto t0 = SteadyClock::now();
  db->rel_pager = OpenPager(w.frames);
  db->idx_pager = OpenPager(w.frames);
  Must(Relation::Open(db->rel_pager.get(), kInvalidPageId, &db->relation),
       "relation open");
  Must(db->relation->EnableBoundingBoxCache(), "bbox cache");
  for (const GeneralizedTuple& t : tuples) {
    Must(db->relation->Insert(t).status(), "relation insert");
  }
  auto t1 = SteadyClock::now();
  Must(DualIndex::Build(db->idx_pager.get(), db->relation.get(),
                        SlopeSet::UniformInAngle(kSlopeCount, -kAngle, kAngle),
                        IndexOptions(w), &db->index),
       "index build");
  Must(db->rel_pager->Flush(), "relation commit");
  Must(db->idx_pager->Flush(), "index commit");
  auto t2 = SteadyClock::now();
  *setup_s = Seconds(t0, t2);
  *build_s = Seconds(t1, t2);
}

void DropCaches(Db* db) {
  Must(db->rel_pager->DropCache(), "drop cache");
  Must(db->idx_pager->DropCache(), "drop cache");
}

using IdList = std::vector<TupleId>;

std::vector<IdList> Oracle(Db* db, exec::QueryExecutor* executor,
                           const std::vector<Query>& qs) {
  std::vector<IdList> out(qs.size());
  std::vector<Status> status(qs.size());
  Must(executor->RunSharded({db->rel_pager.get()}, qs.size(),
                            [&](size_t i) {
                              Result<IdList> r = NaiveSelect(
                                  *db->relation, qs[i].type, qs[i].q);
                              status[i] = r.status();
                              if (r.ok()) out[i] = std::move(r.value());
                            }),
       "oracle");
  for (const Status& st : status) Must(st, "oracle query");
  return out;
}

std::string Describe(const Query& q) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s(y %s %.6g*x + %.6g)",
                q.type == SelectionType::kAll ? "ALL" : "EXIST",
                q.q.cmp == Cmp::kGE ? ">=" : "<=", q.q.slope, q.q.intercept);
  return buf;
}

// Checks one Select outcome against the expected ids and the filter
// partition invariant.
void CheckAnswer(const Result<IdList>& r, const QueryStats& stats,
                 const IdList& expected, const Query& q, Tally* tally) {
  if (!r.ok()) {
    tally->Fail(Describe(q) + " failed: " + r.status().ToString());
    return;
  }
  tally->Check(r.value() == expected,
               Describe(q) + " answer differs from the oracle");
  tally->Guard(stats.filter.Balances(),
               Describe(q) + " FilterCounts do not balance");
}

// --- Query phases ------------------------------------------------------------

// One untimed pass: warms the pools, checks every answer and returns the
// mean logical index page accesses per query (the paper's metric; logical
// fetches do not depend on the cache state).
double WarmupPass(Db* db, const std::vector<Query>& qs,
                  const std::vector<IdList>& oracle, Tally* tally) {
  double pages = 0;
  for (size_t i = 0; i < qs.size(); ++i) {
    QueryStats stats;
    Result<IdList> r =
        db->index->Select(qs[i].type, qs[i].q, qs[i].method, &stats);
    CheckAnswer(r, stats, oracle[i], qs[i], tally);
    pages += static_cast<double>(stats.index_page_fetches);
  }
  return pages / static_cast<double>(qs.size());
}

std::vector<exec::BatchQuery> AsBatch(const std::vector<Query>& qs) {
  std::vector<exec::BatchQuery> batch;
  for (const Query& q : qs) batch.push_back({q.type, q.q, q.method});
  return batch;
}

struct BatchDigests {
  std::vector<double> queue_wait_mean_us, service_mean_us;
};

// Runs the whole query set once through the executor and checks every
// item; returns the seconds it took. With `observed` non-null the batch
// runs instrumented (BatchObservability) and its digests' exact means are
// appended there (their percentiles are log-bucket bounds, which repeat
// exactly from run to run).
double OneBatch(Db* db, exec::QueryExecutor* executor,
                const std::vector<exec::BatchQuery>& batch,
                const std::vector<Query>& qs,
                const std::vector<IdList>& oracle, BatchDigests* observed,
                Tally* tally) {
  std::vector<exec::BatchItemResult> items;
  exec::BatchResult result;
  auto t0 = SteadyClock::now();
  if (observed != nullptr) {
    exec::BatchObservability bobs;
    bobs.record_latency = true;
    Must(executor->RunBatch(db->index.get(), batch, bobs, &result), "batch");
  } else {
    Must(executor->RunBatch(db->index.get(), batch, &items), "batch");
  }
  auto t1 = SteadyClock::now();
  if (observed != nullptr) {
    items = std::move(result.items);
    tally->Guard(result.service.count == batch.size(),
                 "batch service digest count differs from batch size");
    observed->queue_wait_mean_us.push_back(result.queue_wait.mean_ms * 1e3);
    observed->service_mean_us.push_back(result.service.mean_ms * 1e3);
  }
  for (size_t i = 0; i < items.size(); ++i) {
    Result<IdList> r = items[i].status.ok()
                           ? Result<IdList>(std::move(items[i].ids))
                           : Result<IdList>(items[i].status);
    CheckAnswer(r, items[i].stats, oracle[i], qs[i], tally);
  }
  return Seconds(t0, t1);
}

struct ServeOut {
  std::vector<double> query_us;     // Closed-loop Select latencies.
  std::vector<double> batch_rates;  // Queries per second, per batch slice.
};

// Serving window of the read-only workloads. Closed-loop slices (one
// client: the next query is sent when the previous one returned) alternate
// with slices of back-to-back executor batches of the whole query set, so
// both metrics sample the whole window and a slow spell of the host weighs
// on both alike.
ServeOut Serve(Db* db, exec::QueryExecutor* executor,
               const std::vector<Query>& qs, const std::vector<IdList>& oracle,
               const std::vector<size_t>& order, double seconds,
               Tally* tally) {
  constexpr double kClosedSliceSeconds = 2.0;
  constexpr double kBatchSliceSeconds = 0.4;
  const std::vector<exec::BatchQuery> batch = AsBatch(qs);
  ServeOut out;
  size_t k = 0;
  const auto deadline = After(seconds);
  for (size_t slice = 0; SteadyClock::now() < deadline; ++slice) {
    const auto slice_end = std::min(deadline, After(kClosedSliceSeconds));
    OnCpu(slice, [&] {
      while (SteadyClock::now() < slice_end) {
        const size_t i = order[k++ % order.size()];
        QueryStats stats;
        auto t0 = SteadyClock::now();
        Result<IdList> r =
            db->index->Select(qs[i].type, qs[i].q, qs[i].method, &stats);
        auto t1 = SteadyClock::now();
        out.query_us.push_back(Micros(t0, t1));
        CheckAnswer(r, stats, oracle[i], qs[i], tally);
      }
    });
    const auto batch_end = After(kBatchSliceSeconds);
    double batch_s = 0;
    size_t batch_queries = 0;
    do {
      batch_s += OneBatch(db, executor, batch, qs, oracle, nullptr, tally);
      batch_queries += batch.size();
    } while (SteadyClock::now() < batch_end);
    out.batch_rates.push_back(static_cast<double>(batch_queries) / batch_s);
  }
  return out;
}

// --- Traced layer breakdown --------------------------------------------------

// Per-span sums of self time and invocations over traced queries.
struct SpanTotals {
  std::map<std::string, double> self_ms;
  std::map<std::string, double> calls;
  std::map<std::string, double> index_fetches;
  double queries = 0;
  double traced_ms = 0;    // External time of the traced Selects.
  double untraced_ms = 0;  // External time of the paired untraced Selects.
  double self_sum_ms = 0;  // Sum of every node's self time.
  double candidates = 0, dedup = 0, results = 0, precision = 0;
  IoStats io;               // Pager deltas of the untraced Selects.
};

void Walk(const obs::ProfileNode& node, SpanTotals* t, double* self_sum) {
  t->self_ms[node.name] += node.self.wall_ms;
  t->calls[node.name] += static_cast<double>(node.invocations);
  t->index_fetches[node.name] += static_cast<double>(node.self.index_fetches);
  *self_sum += node.self.wall_ms;
  for (const obs::ProfileNode& child : node.children) Walk(child, t, self_sum);
}

IoStats Combined(Db* db) {
  IoStats s = db->rel_pager->stats();
  s.Merge(db->idx_pager->stats());
  return s;
}

// Whole rounds over the query set, each query run untraced and traced
// back to back (alternating which goes first). Counts averaged over whole
// rounds equal the query-set averages, so they repeat exactly per seed.
SpanTotals TracedPass(Db* db, const std::vector<Query>& qs,
                      const std::vector<IdList>& oracle, double seconds,
                      Tally* tally) {
  SpanTotals t;
  const auto deadline = After(seconds);
  size_t round = 0;
  do {
    for (size_t i = 0; i < qs.size(); ++i) {
      const Query& q = qs[i];
      for (int pass = 0; pass < 2; ++pass) {
        const bool traced = (pass == 0) == ((i + round) % 2 == 0);
        QueryStats stats;
        obs::ExplainProfile profile;
        IoStats before = Combined(db);
        auto t0 = SteadyClock::now();
        Result<IdList> r = db->index->Select(q.type, q.q, q.method, &stats,
                                             traced ? &profile : nullptr);
        auto t1 = SteadyClock::now();
        const double ext_ms = Micros(t0, t1) / 1e3;
        CheckAnswer(r, stats, oracle[i], q, tally);
        if (!traced) {
          t.untraced_ms += ext_ms;
          IoStats d = Combined(db).Delta(before);
          t.io.Merge(d);
          continue;
        }
        double self_sum = 0;
        Walk(profile.root, &t, &self_sum);
        t.traced_ms += ext_ms;
        t.self_sum_ms += self_sum;
        t.queries += 1;
        t.candidates += static_cast<double>(stats.filter.candidates);
        t.dedup += static_cast<double>(stats.filter.dedup_dropped);
        t.results += static_cast<double>(stats.filter.results);
        t.precision += stats.filter.precision();
        tally->Guard(profile.SumsBalance(),
                     Describe(q) + " ExplainProfile does not balance");
        tally->Guard(profile.filter.Balances(),
                     Describe(q) + " profile FilterCounts do not balance");
        // Layer self times telescope to the traced Select time: their sum
        // never exceeds the tracer's whole-query time, which never exceeds
        // the time measured around the call.
        tally->Guard(self_sum <= profile.totals.wall_ms + 1e-6 &&
                         profile.totals.wall_ms <= ext_ms + 1e-6,
                     Describe(q) + " span self times exceed the Select time");
      }
    }
    ++round;
  } while (SteadyClock::now() < deadline);
  // What no span covers is the tracer's own bookkeeping between its two
  // clock reads at each span boundary, plus the call itself; it is reported
  // as obs.unattributed_us. A gross shortfall means lost spans.
  tally->Guard(t.self_sum_ms >= 0.8 * t.traced_ms,
               "span self times cover less than 80% of the traced Select time");
  return t;
}

// --- Ingest ------------------------------------------------------------------

struct Appended {
  TupleId id;
  size_t tuple;  // Index into the ingest stream.
};

struct IngestOut {
  // Open loop, in microseconds since the schedule start (append i is due
  // at i / rate); visible_us is -1 for an append that was not acknowledged.
  std::vector<double> sent_us, visible_us;
  // ingest-mixed: reader Select latencies and completion times.
  std::vector<double> reader_us, reader_done_us;
  // Traced runs.
  double group_size_mean = 0, commit_us = 0;
  double stage_us[obs::kIngestStageCount] = {};
  double relation_insert_us = 0, index_insert_us = 0;
};

void CheckLedger(const exec::IngestQueueStats& s, Tally* tally) {
  tally->Guard(s.commits_full + s.commits_deadline + s.commits_drain ==
                   s.groups_committed,
               "commit-trigger ledger does not sum to groups committed");
  tally->Guard(s.appends_committed == s.submitted && s.groups_failed == 0,
               "ingest lane lost or failed appends");
}

// Reader outcome for ingest-mixed: every answer must contain the pre-ingest
// answer, and whatever it adds must be appended tuples that qualify
// (checked once the appended set is known).
struct ReaderItem {
  double us = -1;
  double done_us = 0;  // Completion, microseconds since the phase start.
  size_t query = 0;
  IdList extra;
};

// Open loop: appends are due at a fixed rate whatever the writer does; each
// one's visibility is timed from its due time to the moment its handle
// resolved (after its group's publish). On ingest-mixed, kReaders reader
// threads run queries beside the writer through the executor's ingest lane.
void OpenLoop(const Workload& w, Db* db, exec::QueryExecutor* readers,
              const std::vector<Query>& qs, const std::vector<IdList>& oracle,
              const std::vector<size_t>& order,
              const std::vector<GeneralizedTuple>& stream, size_t* next_tuple,
              double seconds, bool trace, IngestOut* out,
              std::vector<Appended>* appended, std::vector<ReaderItem>* reads,
              Tally* tally) {
  const size_t count = std::min<size_t>(
      static_cast<size_t>(w.ingest_rate * seconds),
      stream.size() - *next_tuple);
  const size_t first = *next_tuple;
  *next_tuple += count;

  obs::IngestPipelineRecorders pipeline;
  obs::LatencyRecorder commit;
  exec::IngestQueueOptions options;
  options.queue_capacity = 4096;
  options.max_group_size = kMaxGroup;
  if (trace) {
    options.pipeline = &pipeline;
    options.publish_latency = &commit;
  }
  exec::IngestQueue queue(db->relation.get(), db->index.get(),
                          db->rel_pager.get(), db->idx_pager.get(), options);

  std::vector<exec::IngestHandle> handles(count);
  std::vector<SteadyClock::time_point> due(count), sent(count);
  std::atomic<size_t> submitted{0};
  std::vector<char> admitted(count, 0);
  const auto start = SteadyClock::now() + std::chrono::milliseconds(5);
  const auto period = std::chrono::duration<double>(1.0 / w.ingest_rate);

  std::thread producer([&] {
    for (size_t i = 0; i < count; ++i) {
      due[i] = start + std::chrono::duration_cast<SteadyClock::duration>(
                           period * static_cast<double>(i));
      std::this_thread::sleep_until(due[i]);
      sent[i] = SteadyClock::now();
      Result<exec::IngestHandle> h = queue.Submit(stream[first + i]);
      if (h.ok()) {
        handles[i] = h.value();
        admitted[i] = 1;
      }
      submitted.store(i + 1, std::memory_order_release);
    }
    queue.Close();
  });
  std::vector<SteadyClock::time_point> visible(count);
  std::vector<Result<TupleId>> acks(count, Status::Unavailable("not run"));
  std::thread waiter([&] {
    for (size_t i = 0; i < count; ++i) {
      while (submitted.load(std::memory_order_acquire) <= i) {
        std::this_thread::yield();
      }
      if (!admitted[i]) continue;
      acks[i] = handles[i].Wait();
      visible[i] = SteadyClock::now();
    }
  });

  if (w.mixed) {
    // Upper bound on reader items; items after the writer stopped return
    // at once.
    const size_t n = static_cast<size_t>(
        static_cast<double>(kReaders) * (seconds + 1.0) / 100e-6);
    reads->assign(n, ReaderItem());
    std::atomic<bool> stop{false};
    std::vector<Status> reader_status(n);
    std::vector<char> balanced(n, 1);
    const auto phase_start = SteadyClock::now();
    auto job = [&](size_t k) {
      if (stop.load(std::memory_order_acquire)) return;
      const size_t i = order[k % order.size()];
      ReaderItem& item = (*reads)[k];
      item.query = i;
      QueryStats stats;
      auto t0 = SteadyClock::now();
      Result<IdList> r =
          db->index->Select(qs[i].type, qs[i].q, qs[i].method, &stats);
      auto t1 = SteadyClock::now();
      item.us = Micros(t0, t1);
      item.done_us = Micros(phase_start, t1);
      balanced[k] = stats.filter.Balances();
      if (!r.ok()) {
        reader_status[k] = r.status();
        return;
      }
      // Split into (pre-ingest answer must be contained) + extras.
      const IdList& before = oracle[i];
      size_t matched = 0;
      for (TupleId id : r.value()) {
        if (matched < before.size() && before[matched] == id) {
          ++matched;
        } else {
          item.extra.push_back(id);
        }
      }
      if (matched != before.size()) {
        reader_status[k] = Status::Corruption("answer lost pre-ingest tuples");
      }
    };
    Must(readers->RunWithWriter({db->idx_pager.get(), db->rel_pager.get()}, n,
                                job,
                                [&] {
                                  Status st = queue.RunWriter();
                                  stop.store(true, std::memory_order_release);
                                  return st;
                                }),
         "mixed ingest");
    for (size_t k = 0; k < n; ++k) {
      if ((*reads)[k].us < 0) continue;
      out->reader_us.push_back((*reads)[k].us);
      out->reader_done_us.push_back((*reads)[k].done_us);
      const Query& q = qs[(*reads)[k].query];
      if (!reader_status[k].ok()) {
        tally->Fail(Describe(q) + " beside the writer: " +
                    reader_status[k].ToString());
      }
      tally->Guard(balanced[k] != 0,
                   Describe(q) + " FilterCounts do not balance");
    }
  } else {
    Must(queue.RunWriter(), "ingest writer");
  }
  producer.join();
  waiter.join();

  for (size_t i = 0; i < count; ++i) {
    out->sent_us.push_back(Micros(start, sent[i]));
    if (!admitted[i] || !acks[i].ok()) {
      tally->Fail("open-loop append " + std::to_string(i) +
                  " not acknowledged");
      out->visible_us.push_back(-1);
      continue;
    }
    tally->Pass();
    appended->push_back({acks[i].value(), first + i});
    out->visible_us.push_back(Micros(start, visible[i]));
  }
  const exec::IngestQueueStats stats = queue.stats();
  CheckLedger(stats, tally);
  if (trace) {
    out->group_size_mean =
        static_cast<double>(stats.appends_committed) /
        static_cast<double>(std::max<uint64_t>(1, stats.groups_committed));
    out->commit_us = static_cast<double>(commit.sum_ns()) / 1e3 /
                     static_cast<double>(std::max<uint64_t>(1, commit.count()));
    uint64_t stage_sum = 0;
    const double appends = static_cast<double>(
        std::max<uint64_t>(1, pipeline.visibility().count()));
    for (int s = 0; s < obs::kIngestStageCount; ++s) {
      const obs::LatencyRecorder& rec =
          pipeline.stage(static_cast<obs::IngestStage>(s));
      stage_sum += rec.sum_ns();
      out->stage_us[s] = static_cast<double>(rec.sum_ns()) / 1e3 / appends;
    }
    tally->Guard(pipeline.unbalanced_groups() == 0 &&
                     stage_sum == pipeline.visibility().sum_ns(),
                 "ingest stage times do not sum to visibility");
  }
}

// Closed loop: one producer keeps kDrainWindow appends outstanding for
// `seconds` while the calling thread runs the writer. Returns each
// acknowledgement's time in microseconds since the first submit (run.py
// reports the median rate over windows of acknowledgements). The producer
// is bound to the CPU after `slot`.
std::vector<double> DrainSlice(Db* db,
                               const std::vector<GeneralizedTuple>& stream,
                               size_t* next_tuple, double seconds, size_t slot,
                               std::vector<Appended>* appended, Tally* tally) {
  exec::IngestQueueOptions options;
  options.queue_capacity = kDrainWindow * 2;
  options.max_group_size = kMaxGroup;
  exec::IngestQueue queue(db->relation.get(), db->index.get(),
                          db->rel_pager.get(), db->idx_pager.get(), options);
  std::vector<double> ack_us;
  SteadyClock::time_point first_submit;
  std::thread producer([&] {
    BindToCpu(slot + 1);
    std::vector<std::pair<exec::IngestHandle, size_t>> window;
    size_t head = 0;
    auto settle = [&] {
      Result<TupleId> id = window[head].first.Wait();
      if (id.ok()) {
        ack_us.push_back(Micros(first_submit, SteadyClock::now()));
        tally->Pass();
        appended->push_back({id.value(), window[head].second});
      } else {
        tally->Fail("drain append not acknowledged: " + id.status().ToString());
      }
      ++head;
    };
    first_submit = SteadyClock::now();
    const auto deadline = After(seconds);
    while (SteadyClock::now() < deadline && *next_tuple < stream.size()) {
      if (window.size() - head >= kDrainWindow) {
        settle();
        continue;
      }
      Result<exec::IngestHandle> h = queue.Submit(stream[*next_tuple]);
      if (!h.ok()) {
        tally->Fail("drain append shed: " + h.status().ToString());
      } else {
        window.push_back({h.value(), *next_tuple});
      }
      ++*next_tuple;
    }
    queue.Close();
    while (head < window.size()) settle();
  });
  Must(queue.RunWriter(), "drain writer");
  producer.join();
  CheckLedger(queue.stats(), tally);
  return ack_us;
}

// Direct inserts through the two layers' public calls (traced runs only):
// relation append, then the 2k index trees; one commit at the end.
void InsertProbe(Db* db, const std::vector<GeneralizedTuple>& stream,
                 size_t* next_tuple, std::vector<Appended>* appended,
                 IngestOut* out, Tally* tally) {
  const size_t count = std::min(kInsertProbe, stream.size() - *next_tuple);
  double rel_us = 0, idx_us = 0;
  for (size_t k = 0; k < count; ++k, ++*next_tuple) {
    const GeneralizedTuple& t = stream[*next_tuple];
    auto t0 = SteadyClock::now();
    Result<TupleId> id = db->relation->Insert(t);
    auto t1 = SteadyClock::now();
    if (!id.ok()) {
      tally->Fail("relation insert: " + id.status().ToString());
      continue;
    }
    Status st = db->index->Insert(id.value(), t);
    auto t2 = SteadyClock::now();
    rel_us += Micros(t0, t1);
    idx_us += Micros(t1, t2);
    tally->Check(st.ok(), "index insert: " + st.ToString());
    if (st.ok()) appended->push_back({id.value(), *next_tuple});
  }
  Must(db->rel_pager->Flush(), "probe commit");
  Must(db->idx_pager->Flush(), "probe commit");
  const double inserts = static_cast<double>(std::max<size_t>(1, count));
  out->relation_insert_us = rel_us / inserts;
  out->index_insert_us = idx_us / inserts;
}

// After ingest: every acknowledged append reads back unchanged, and every
// kVerifyStride-th query returns the pre-ingest answer plus exactly the
// qualifying appends. On ingest-mixed, whatever a reader's answer added to
// the pre-ingest answer must be acknowledged appends that qualify.
constexpr size_t kVerifyStride = 8;

void VerifyAfterIngest(Db* db, const std::vector<Query>& qs,
                       const std::vector<IdList>& oracle,
                       const std::vector<GeneralizedTuple>& stream,
                       const std::vector<Appended>& appended,
                       const std::vector<ReaderItem>& reads, Tally* tally) {
  std::map<TupleId, size_t> tuple_of;
  for (const Appended& a : appended) {
    tuple_of[a.id] = a.tuple;
    GeneralizedTuple t;
    Status st = db->relation->Get(a.id, &t);
    bool same = st.ok() && t.size() == stream[a.tuple].size();
    for (size_t c = 0; same && c < t.size(); ++c) {
      const Constraint2D& x = t.constraints()[c];
      const Constraint2D& y = stream[a.tuple].constraints()[c];
      same = x.a == y.a && x.b == y.b && x.c == y.c && x.cmp == y.cmp;
    }
    tally->Check(same,
                 "append " + std::to_string(a.id) + " does not read back");
  }
  // Ids each query must be checked for: all appends for the verified
  // queries, the reader extras for the rest.
  std::vector<IdList> candidates(qs.size());
  for (size_t i = 0; i < qs.size(); i += kVerifyStride) {
    for (const auto& [id, tuple] : tuple_of) candidates[i].push_back(id);
  }
  for (const ReaderItem& item : reads) {
    if (item.us < 0 || item.query % kVerifyStride == 0) continue;
    IdList& c = candidates[item.query];
    c.insert(c.end(), item.extra.begin(), item.extra.end());
  }
  std::vector<IdList> qualifying(qs.size());
  ParallelFor(qs.size(), [&](size_t i) {
    IdList& c = candidates[i];
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
    for (TupleId id : c) {
      auto it = tuple_of.find(id);
      if (it != tuple_of.end() &&
          Qualifies(stream[it->second], qs[i].type, qs[i].q)) {
        qualifying[i].push_back(id);
      }
    }
  });
  for (size_t i = 0; i < qs.size(); i += kVerifyStride) {
    IdList expected = oracle[i];
    expected.insert(expected.end(), qualifying[i].begin(), qualifying[i].end());
    QueryStats stats;
    Result<IdList> r =
        db->index->Select(qs[i].type, qs[i].q, qs[i].method, &stats);
    CheckAnswer(r, stats, expected, qs[i], tally);
  }
  for (const ReaderItem& item : reads) {
    if (item.us < 0) continue;
    const IdList& ok_ids = qualifying[item.query];
    tally->Check(std::includes(ok_ids.begin(), ok_ids.end(),
                               item.extra.begin(), item.extra.end()),
                 Describe(qs[item.query]) +
                     " beside the writer returned a non-qualifying tuple");
  }
}

// --- Layer micro-timings (traced runs) ---------------------------------------

double TimeNs(size_t calls, const std::function<void()>& body) {
  auto t0 = SteadyClock::now();
  body();
  auto t1 = SteadyClock::now();
  return Micros(t0, t1) * 1e3 / static_cast<double>(std::max<size_t>(1, calls));
}

void GeometryTimings(const std::vector<GeneralizedTuple>& tuples,
                     const std::vector<Query>& qs,
                     std::map<std::string, double>* layers) {
  const size_t probes = std::min<size_t>(8, qs.size());
  volatile double sink = 0;
  size_t hits = 0;
  (*layers)["geometry.top_value_ns"] =
      TimeNs(probes * tuples.size() * 2, [&] {
        for (size_t k = 0; k < probes; ++k) {
          for (const GeneralizedTuple& t : tuples) {
            sink = sink + TopValue(t.constraints(), qs[k].q.slope) -
                   BotValue(t.constraints(), qs[k].q.slope);
          }
        }
      });
  (*layers)["geometry.exact_ns"] = TimeNs(probes * tuples.size(), [&] {
    for (size_t k = 0; k < probes; ++k) {
      for (const GeneralizedTuple& t : tuples) {
        hits += Qualifies(t, qs[k].type, qs[k].q) ? 1 : 0;
      }
    }
  });
  sink = sink + static_cast<double>(hits);
}

// RefineBatch2D over raw candidates from a second handle opened with
// refine=false; the refined ids must equal the oracle.
void RefineTimings(Db* db, const Workload& w, const std::vector<Query>& qs,
                   const std::vector<IdList>& oracle,
                   std::map<std::string, double>* layers, Tally* tally) {
  DualIndexOptions raw_options = IndexOptions(w);
  raw_options.refine = false;
  std::unique_ptr<DualIndex> raw;
  Must(DualIndex::Open(db->idx_pager.get(), db->relation.get(),
                       db->index->Manifest(), raw_options, &raw),
       "raw index open");
  obs::Counter* lp_calls =
      obs::GlobalMetrics().counter("perfbench.refine.lp_calls");
  double ns = 0, candidates = 0;
  for (size_t i = 0; i < qs.size(); ++i) {
    Result<IdList> r = raw->Select(qs[i].type, qs[i].q, qs[i].method);
    if (!r.ok()) {
      tally->Fail(Describe(qs[i]) + " raw select: " + r.status().ToString());
      continue;
    }
    IdList ids = std::move(r.value());
    candidates += static_cast<double>(ids.size());
    obs::FilterCounts filter;
    uint64_t false_hits = 0;
    auto t0 = SteadyClock::now();
    Status st = RefineBatch2D(*db->relation, qs[i].type, qs[i].q, lp_calls,
                              nullptr, &ids, &filter, &false_hits);
    auto t1 = SteadyClock::now();
    ns += Micros(t0, t1) * 1e3;
    tally->Check(st.ok() && ids == oracle[i],
                 Describe(qs[i]) + " RefineBatch2D answer differs");
  }
  (*layers)["constraint.refine_ns_per_candidate"] =
      ns / std::max(1.0, candidates);
}

// Pager::Fetch after DropCache (miss: read + CRC verify) and again while
// resident (hit), over relation pages spread across the file.
void StorageTimings(Db* db, std::map<std::string, double>* layers) {
  std::vector<PageId> pages;
  const size_t per_round =
      std::min<size_t>(32, db->rel_pager->live_page_count() / 2);
  for (TupleId id = 0; pages.size() < per_round && id < kTuples; id += 97) {
    PageId pid;
    Must(db->relation->LocateTuple(id, &pid), "locate");
    if (std::find(pages.begin(), pages.end(), pid) == pages.end()) {
      pages.push_back(pid);
    }
  }
  double miss_ns = 0, hit_ns = 0;
  const int rounds = 64;
  for (int r = 0; r < rounds; ++r) {
    Must(db->rel_pager->DropCache(), "drop cache");
    miss_ns += TimeNs(1, [&] {
      for (PageId p : pages) Must(db->rel_pager->Fetch(p).status(), "fetch");
    });
    hit_ns += TimeNs(1, [&] {
      for (PageId p : pages) Must(db->rel_pager->Fetch(p).status(), "fetch");
    });
  }
  const double fetches = static_cast<double>(rounds * pages.size());
  (*layers)["storage.miss_ns"] = miss_ns / fetches;
  (*layers)["storage.hit_ns"] = hit_ns / fetches;
  DropCaches(db);
}

// SeekLeaf and NextLeaf on the index trees reopened from the manifest.
void BtreeTimings(Db* db, const std::vector<Query>& qs,
                  std::map<std::string, double>* layers, double* max_height) {
  DualIndexManifest m = db->index->Manifest();
  std::vector<std::unique_ptr<BPlusTree>> trees;
  for (const std::vector<PageId>* metas : {&m.up_metas, &m.down_metas}) {
    for (PageId meta : *metas) {
      std::unique_ptr<BPlusTree> tree;
      Must(BPlusTree::Open(db->idx_pager.get(), meta, &tree), "tree open");
      *max_height = std::max(*max_height, static_cast<double>(tree->height()));
      trees.push_back(std::move(tree));
    }
  }
  double seek_ns = 0, next_ns = 0, seeks = 0, nexts = 0;
  for (int round = 0; round < 4; ++round) {
    for (const Query& q : qs) {
      for (const std::unique_ptr<BPlusTree>& tree : trees) {
        LeafCursor cur;
        auto t0 = SteadyClock::now();
        Must(tree->SeekLeaf(q.q.intercept, &cur), "seek");
        auto t1 = SteadyClock::now();
        int steps = 0;
        for (; steps < 8 && cur.valid(); ++steps) {
          Must(cur.NextLeaf(), "next leaf");
        }
        auto t2 = SteadyClock::now();
        seek_ns += Micros(t0, t1) * 1e3;
        next_ns += Micros(t1, t2) * 1e3;
        seeks += 1;
        nexts += steps;
      }
    }
  }
  (*layers)["btree.seek_ns"] = seek_ns / seeks;
  (*layers)["btree.next_leaf_ns"] = next_ns / std::max(1.0, nexts);
}

// Mean per-query tuple-page physical reads with both pools emptied before
// each query (the paper's cold-cache accounting; repeats exactly).
double ColdTupleReads(Db* db, const std::vector<Query>& qs,
                      const std::vector<IdList>& oracle, Tally* tally) {
  double reads = 0;
  for (size_t i = 0; i < qs.size(); ++i) {
    DropCaches(db);
    QueryStats stats;
    Result<IdList> r =
        db->index->Select(qs[i].type, qs[i].q, qs[i].method, &stats);
    CheckAnswer(r, stats, oracle[i], qs[i], tally);
    reads += static_cast<double>(stats.tuple_page_fetches);
  }
  DropCaches(db);
  return reads / static_cast<double>(qs.size());
}

// Per-layer numbers of the traced pass. Spans the workload's own query
// family never opens (the exact sweep on T2 workloads; filter, sweeps and
// refinement on exact-spilled) are read from the complementary family run
// over the same pools, so every layer reports on every workload.
void SpanLayers(const SpanTotals& main, const SpanTotals& other,
                double max_height, std::map<std::string, double>* layers) {
  auto per_query_us = [&](std::initializer_list<const char*> names) {
    for (const SpanTotals* t : {&main, &other}) {
      double ms = 0, calls = 0;
      for (const char* n : names) {
        auto it = t->self_ms.find(n);
        if (it != t->self_ms.end()) {
          ms += it->second;
          calls += t->calls.at(n);
        }
      }
      if (calls > 0) return ms * 1e3 / t->queries;
    }
    return 0.0;
  };
  auto& L = *layers;
  L["dualindex.plan_us"] = per_query_us({"dual/select"});
  L["dualindex.filter_us"] = per_query_us({"filter"});
  L["dualindex.sweep_first_us"] = per_query_us({"sweep/first"});
  L["dualindex.sweep_second_us"] =
      per_query_us({"sweep/second", "sweep/bound"});
  L["dualindex.sweep_exact_us"] = per_query_us({"sweep/exact"});
  L["constraint.refine_us"] = per_query_us({"refine"});
  L["storage.fetch_page_us"] = per_query_us({"fetch-page"});
  L["geometry.lp_us"] = per_query_us({"lp"});

  const double q = main.queries;
  auto calls = [&](const char* n) {
    auto it = main.calls.find(n);
    return it == main.calls.end() ? 0.0 : it->second;
  };
  const double lp = calls("lp");
  L["constraint.lp_calls_per_query"] = lp / q;
  L["constraint.early_decisions_per_query"] =
      (main.candidates - main.dedup - lp) / q;
  L["dualindex.candidates_per_query"] = main.candidates / q;
  L["dualindex.precision"] = main.precision / q;
  // Leaves: index pages of the sweep spans minus one root-to-leaf path of
  // internal nodes per sweep.
  double leaves = 0;
  for (const char* n : {"sweep/first", "sweep/second", "sweep/exact"}) {
    auto it = main.index_fetches.find(n);
    if (it == main.index_fetches.end()) continue;
    leaves += it->second - calls(n) * (max_height - 1);
  }
  L["btree.leaves_per_query"] = leaves / q;
  L["obs.traced_select_us"] = main.traced_ms * 1e3 / q;
  L["obs.unattributed_us"] = (main.traced_ms - main.self_sum_ms) * 1e3 / q;
  L["obs.trace_overhead_pct"] =
      100.0 * (main.traced_ms - main.untraced_ms) / main.untraced_ms;
  const IoStats& io = main.io;
  L["storage.hit_rate"] =
      static_cast<double>(io.buffer_hits) /
      static_cast<double>(std::max<uint64_t>(1, io.page_fetches));
  L["storage.reads_per_query"] = static_cast<double>(io.page_reads) / q;
  L["storage.evictions_per_query"] =
      static_cast<double>(io.buffer_evictions) / q;
}

// --- Main --------------------------------------------------------------------

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) a->workload = &w;
      }
    } else if (key == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      a->trace = value == "1";
    } else {
      return false;
    }
  }
  return a->workload != nullptr && have_seed && a->seconds > 0 &&
         a->seconds <= 600;
}

int Run(const Args& args) {
  const Workload& w = *args.workload;
  const Phases phase = PhasesFor(w, args.trace);
  AllowedCpus();  // Read the process's CPU set before any thread is bound.
  Mark("start");
  const double S = args.seconds;
  Tally tally;
  obs::JsonWriter out;
  out.BeginObject();

  // Inputs: generated and calibrated before set-up, reused by every pass.
  const SlopeSet slopes =
      SlopeSet::UniformInAngle(kSlopeCount, -kAngle, kAngle);
  const std::vector<GeneralizedTuple> tuples =
      MakeTuples(SplitSeed(args.seed, 1), kTuples);
  Mark("generate");
  Rng qrng(SplitSeed(args.seed, 2));
  const std::vector<Query> qs =
      MakeQueries(tuples, slopes, w.exact, kQueries, &qrng);
  // Complementary family (other slope placement), for spans the
  // workload's own queries never open. Traced runs only.
  std::vector<Query> complement;
  if (args.trace) {
    complement =
        MakeQueries(tuples, slopes, !w.exact, kComplementQueries, &qrng);
  }
  const size_t stream_size =
      static_cast<size_t>(w.ingest_rate * S * phase.open) +
      static_cast<size_t>(kMaxDrainRate * S * phase.drain) + kInsertProbe + 64;
  const std::vector<GeneralizedTuple> stream =
      MakeTuples(SplitSeed(args.seed, 3), stream_size);
  Rng orng(SplitSeed(args.seed, 4));
  const std::vector<size_t> order = Permutation(qs.size(), &orng);
  Mark("inputs");

  // Set-up, repeated; the last database is the one measured.
  Db db;
  std::vector<double> setup_s, build_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    double s = 0, b = 0;
    OnCpu(static_cast<size_t>(r), [&] { Setup(w, tuples, &db, &s, &b); });
    setup_s.push_back(s);
    build_s.push_back(b);
  }
  WriteNums(&out, "setup_s", setup_s);
  Mark("setup");
  const double space_pages = static_cast<double>(
      db.idx_pager->live_page_count() + db.rel_pager->live_page_count());

  exec::QueryExecutor executor(WorkerCount());
  const std::vector<IdList> oracle = Oracle(&db, &executor, qs);
  std::vector<IdList> complement_oracle;
  if (args.trace) complement_oracle = Oracle(&db, &executor, complement);
  DropCaches(&db);
  Mark("oracle");
  const double index_pages = WarmupPass(&db, qs, oracle, &tally);
  Mark("warmup");

  IngestOut ingest;
  std::vector<Appended> appended;
  std::vector<ReaderItem> reads;
  size_t next_tuple = 0;
  std::map<std::string, double> layers;

  if (args.trace) {
    layers["constraint.tuple_reads_per_query"] =
        ColdTupleReads(&db, qs, oracle, &tally);
    WarmupPass(&db, qs, oracle, &tally);
    SpanTotals main = TracedPass(&db, qs, oracle, S * phase.traced, &tally);
    SpanTotals other =
        TracedPass(&db, complement, complement_oracle, 0, &tally);
    Mark("traced");
    double max_height = 1;
    BtreeTimings(&db, qs, &layers, &max_height);
    SpanLayers(main, other, max_height, &layers);
    GeometryTimings(tuples, qs, &layers);
    RefineTimings(&db, w, qs, oracle, &layers, &tally);
    StorageTimings(&db, &layers);
    Mark("micro");
    WarmupPass(&db, qs, oracle, &tally);
    BatchDigests b;
    const std::vector<exec::BatchQuery> batch = AsBatch(qs);
    const auto batch_end = After(S * phase.batch);
    do {
      OneBatch(&db, &executor, batch, qs, oracle, &b, &tally);
    } while (SteadyClock::now() < batch_end);
    std::sort(b.queue_wait_mean_us.begin(), b.queue_wait_mean_us.end());
    std::sort(b.service_mean_us.begin(), b.service_mean_us.end());
    layers["exec.queue_wait_mean_us"] =
        b.queue_wait_mean_us[b.queue_wait_mean_us.size() / 2];
    layers["exec.service_mean_us"] =
        b.service_mean_us[b.service_mean_us.size() / 2];
    std::vector<double> sorted_build = build_s;
    std::sort(sorted_build.begin(), sorted_build.end());
    layers["dualindex.build_s"] = sorted_build[sorted_build.size() / 2];
    Mark("batch");
  } else if (!w.mixed) {
    ServeOut served =
        Serve(&db, &executor, qs, oracle, order, S * phase.serve, &tally);
    WriteNums(&out, "query_us", served.query_us);
    WriteNums(&out, "batch_rates", served.batch_rates);
    Mark("serve");
  }

  // Ingest: open loop (readers beside the writer on ingest-mixed), then the
  // closed-loop drain.
  if (w.mixed) {
    const size_t reserve =
        static_cast<size_t>(w.ingest_rate * S * phase.open) + 64;
    Must(db.relation->BeginOnlineAppends(reserve), "online appends");
  }
  exec::QueryExecutor reader_pool(kReaders);
  OpenLoop(w, &db, &reader_pool, qs, oracle, order, stream, &next_tuple,
           S * phase.open, args.trace, &ingest, &appended, &reads, &tally);
  Mark("open-loop");
  // The drain runs one slice per CPU, the writer bound to it.
  std::vector<std::vector<double>> drain_ack_us;
  const size_t drain_slices = std::max<size_t>(1, AllowedCpus().size());
  for (size_t slot = 0; slot < drain_slices; ++slot) {
    OnCpu(slot, [&] {
      drain_ack_us.push_back(DrainSlice(
          &db, stream, &next_tuple, S * phase.drain / drain_slices, slot,
          &appended, &tally));
    });
  }
  Mark("drain");
  if (args.trace) {
    InsertProbe(&db, stream, &next_tuple, &appended, &ingest, &tally);
    static const char* kStageKeys[obs::kIngestStageCount] = {
        "exec.stage.admission_us", "exec.stage.group_wait_us",
        "exec.stage.apply_us", "exec.stage.fsync_us", "exec.stage.publish_us"};
    for (int s = 0; s < obs::kIngestStageCount; ++s) {
      layers[kStageKeys[s]] = ingest.stage_us[s];
    }
    layers["exec.group_size_mean"] = ingest.group_size_mean;
    layers["exec.commit_us"] = ingest.commit_us;
    layers["constraint.relation_insert_us"] = ingest.relation_insert_us;
    layers["dualindex.insert_us"] = ingest.index_insert_us;
  }
  VerifyAfterIngest(&db, qs, oracle, stream, appended, reads, &tally);
  Mark("verify");

  if (!args.trace) {
    if (w.mixed) {
      WriteNums(&out, "query_us", ingest.reader_us);
      WriteNums(&out, "reader_done_us", ingest.reader_done_us);
    }
    out.Key("index_pages_per_query").Value(index_pages);
    out.Key("space_pages").Value(space_pages);
  } else {
    out.Key("layers").BeginObject();
    for (const auto& [name, value] : layers) out.Key(name).Value(value);
    out.EndObject();
  }
  out.Key("drain_ack_us").BeginArray();
  for (const std::vector<double>& slice : drain_ack_us) {
    out.BeginArray();
    for (double v : slice) out.Value(v);
    out.EndArray();
  }
  out.EndArray();
  out.Key("ingest_rate").Value(w.ingest_rate);
  WriteNums(&out, "sent_us", ingest.sent_us);
  WriteNums(&out, "visible_us", ingest.visible_us);
  out.Key("attempted").Value(tally.attempted());
  out.Key("failed").Value(tally.failed());
  out.Key("guard_failures").Value(tally.guard_failures());
  out.Key("notes").BeginArray();
  for (const std::string& note : tally.notes()) out.Value(note);
  out.EndArray();
  out.EndObject();
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace cdb

int main(int argc, char** argv) {
  cdb::perfbench::Args args;
  if (!cdb::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "t2-resident|t2-spilled|exact-spilled|ingest-mixed "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  return cdb::perfbench::Run(args);
}
