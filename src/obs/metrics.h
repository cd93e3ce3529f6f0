// MetricsRegistry: named counters and gauges for the observability layer.
// Latency distributions are obs::LatencyRecorder digests (obs/latency.h),
// exported here as gauges.
//
// Design goals (ISSUE 1):
//  - no exceptions;
//  - near-zero overhead when disabled: hot-path call sites cache the handle
//    in a function-local static and Increment() reduces to one predicated
//    load when the owning registry is disabled;
//  - stable handles: pointers returned by counter()/gauge() remain valid
//    for the registry's lifetime (deque storage);
//  - deterministic JSON snapshots (members sorted by name) feeding the
//    BENCH_*.json artifacts.
//
// Counters are *event* metrics and respect the enabled flag;
// gauges are *snapshot* metrics written by export paths (e.g.
// ExportPagerMetrics) and always store, so a disabled registry still
// yields a truthful point-in-time export.
//
// Thread safety (ISSUE 3): Increment/Set are atomic (relaxed), so
// executor worker threads sharing cached handles never lose events;
// registration and snapshots are serialized on a registry mutex. Handles
// stay stable (deque storage), so the function-local-static caching idiom
// at hot call sites remains valid under concurrency.

#ifndef CDB_OBS_METRICS_H_
#define CDB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/json.h"

namespace cdb {

class Pager;

namespace obs {

class MetricsRegistry;

/// Monotonically increasing event count. Increment is safe from any thread.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    if (enabled_->load(std::memory_order_relaxed)) {
      value_.fetch_add(n, std::memory_order_relaxed);
    }
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

  // Deque storage moves elements only at registration time (under the
  // registry mutex), never while another thread can hold the handle.
  Counter(Counter&& o) noexcept
      : name_(std::move(o.name_)),
        enabled_(o.enabled_),
        value_(o.value_.load(std::memory_order_relaxed)) {}

 private:
  friend class MetricsRegistry;
  Counter(std::string name, const std::atomic<bool>* enabled)
      : name_(std::move(name)), enabled_(enabled) {}

  std::string name_;
  const std::atomic<bool>* enabled_;
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time value (buffer-pool residency, live pages, ...). Set() is
/// not gated: gauges are written by export snapshots, not hot loops.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

  Gauge(Gauge&& o) noexcept
      : name_(std::move(o.name_)),
        value_(o.value_.load(std::memory_order_relaxed)) {}

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<double> value_{0};
};

/// Point-in-time copy of a registry's contents, decoupled from the live
/// atomics. The unit of export (obs/export.h Prometheus exposition) and of
/// interval accounting via SnapshotDelta. Maps keep everything sorted by
/// metric name, so renderings diff cleanly across runs.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
};

/// Interval view between two snapshots of the same registry: counters
/// become `later - earlier` (clamped at zero, so a
/// ResetAll between the snapshots reads as a fresh start rather than an
/// underflow); gauges keep the later point-in-time value. Metrics absent
/// from `earlier` are taken whole.
MetricsSnapshot SnapshotDelta(const MetricsSnapshot& later,
                              const MetricsSnapshot& earlier);

/// See file comment.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = false) : enabled_(enabled) {}
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter/gauge registered under `name`, creating it on
  /// first use. Handles are stable for the registry's lifetime.
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Zeroes every counter and gauge (handles stay valid).
  void ResetAll();

  /// Writes {"counters":{...},"gauges":{...}} with members sorted by
  /// metric name.
  void WriteJson(JsonWriter* w) const;
  std::string ToJson() const;

  /// Copies every metric's current value (sorted by name). The snapshot is
  /// internally consistent per metric; concurrent writers may land between
  /// two metrics' reads, like any export.
  MetricsSnapshot Snapshot() const;

 private:
  std::atomic<bool> enabled_;
  mutable std::mutex mu_;  // Guards the maps and storage below.
  std::deque<Counter> counter_storage_;
  std::deque<Gauge> gauge_storage_;
  std::map<std::string, Counter*, std::less<>> counters_;
  std::map<std::string, Gauge*, std::less<>> gauges_;
};

/// The process-wide registry. Disabled by default; benchmarks and tests
/// opt in with GlobalMetrics().SetEnabled(true).
MetricsRegistry& GlobalMetrics();

/// Publishes a pager's IoStats counters and buffer-pool state as gauges
/// named "<prefix>.page_fetches", "<prefix>.buffer_hits",
/// "<prefix>.resident_frames", ... (gauges, not counters: this is a
/// point-in-time snapshot of an externally owned accumulator). Also
/// publishes the concurrency/pipeline instrumentation (ISSUE 5):
/// "<prefix>.shard.lock_waits"/".lock_wait_ns"/".imbalance",
/// "<prefix>.publish.epochs"/".drain_ns"/".sessions_drained"/".pages", and
/// "<prefix>.fsync.data_count"/".data_ns"/".journal_count"/".journal_ns".
void ExportPagerMetrics(const Pager& pager, MetricsRegistry* registry,
                        const std::string& prefix);

}  // namespace obs
}  // namespace cdb

#endif  // CDB_OBS_METRICS_H_
