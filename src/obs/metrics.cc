#include "obs/metrics.h"

#include <algorithm>

#include "storage/pager.h"

namespace cdb {
namespace obs {

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  counter_storage_.push_back(Counter(std::string(name), &enabled_));
  Counter* c = &counter_storage_.back();
  counters_.emplace(c->name(), c);
  return c;
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  gauge_storage_.push_back(Gauge(std::string(name)));
  Gauge* g = &gauge_storage_.back();
  gauges_.emplace(g->name(), g);
  return g;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Counter& c : counter_storage_) {
    c.value_.store(0, std::memory_order_relaxed);
  }
  for (Gauge& g : gauge_storage_) {
    g.value_.store(0, std::memory_order_relaxed);
  }
}

void MetricsRegistry::WriteJson(JsonWriter* w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w->BeginObject();
  w->Key("counters").BeginObject();
  for (const auto& [name, c] : counters_) w->Key(name).Value(c->value());
  w->EndObject();
  w->Key("gauges").BeginObject();
  for (const auto& [name, g] : gauges_) w->Key(name).Value(g->value());
  w->EndObject();
  w->EndObject();
}

std::string MetricsRegistry::ToJson() const {
  JsonWriter w;
  WriteJson(&w);
  return w.TakeString();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  return snap;
}

MetricsSnapshot SnapshotDelta(const MetricsSnapshot& later,
                              const MetricsSnapshot& earlier) {
  auto sub = [](uint64_t a, uint64_t b) { return a > b ? a - b : 0; };
  MetricsSnapshot out;
  for (const auto& [name, v] : later.counters) {
    auto it = earlier.counters.find(name);
    out.counters[name] = it == earlier.counters.end() ? v : sub(v, it->second);
  }
  out.gauges = later.gauges;
  return out;
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry* registry = new MetricsRegistry(/*enabled=*/false);
  return *registry;
}

void ExportPagerMetrics(const Pager& pager, MetricsRegistry* registry,
                        const std::string& prefix) {
  const IoStats& s = pager.stats();
  auto set = [&](const char* name, double v) {
    registry->gauge(prefix + "." + name)->Set(v);
  };
  set("page_fetches", static_cast<double>(s.page_fetches));
  set("page_reads", static_cast<double>(s.page_reads));
  set("page_writes", static_cast<double>(s.page_writes));
  set("pages_allocated", static_cast<double>(s.pages_allocated));
  set("buffer_hits", static_cast<double>(s.buffer_hits));
  set("buffer_evictions", static_cast<double>(s.buffer_evictions));
  set("dirty_writebacks", static_cast<double>(s.dirty_writebacks));
  set("checksum_failures", static_cast<double>(s.checksum_failures));
  set("journal_records", static_cast<double>(s.journal_records));
  set("journal_commits", static_cast<double>(s.journal_commits));
  set("journal_replays", static_cast<double>(s.journal_replays));
  set("pages_rolled_back", static_cast<double>(s.pages_rolled_back));
  set("resident_frames", static_cast<double>(pager.resident_frame_count()));
  set("pinned_frames", static_cast<double>(pager.pinned_frame_count()));
  set("live_pages", static_cast<double>(pager.live_page_count()));
  // Concurrency/pipeline instrumentation (ISSUE 5). Exported
  // unconditionally: the serial paper benches never call
  // ExportPagerMetrics, so the extra gauges cannot perturb their
  // artifacts, and a concurrent caller always wants the full picture
  // (zeros included — "no contention" is a result).
  const PagerConcurrencyStats c = pager.concurrency_stats();
  set("shard.lock_waits", static_cast<double>(c.shard_lock_waits));
  set("shard.lock_wait_ns", static_cast<double>(c.shard_lock_wait_ns));
  set("shard.imbalance", pager.ShardImbalance());
  set("publish.epochs", static_cast<double>(c.publish_epochs));
  set("publish.drain_ns", static_cast<double>(c.publish_drain_ns));
  set("publish.sessions_drained",
      static_cast<double>(c.publish_sessions_drained));
  set("publish.pages", static_cast<double>(c.publish_pages));
  set("fsync.data_count", static_cast<double>(c.data_fsyncs));
  set("fsync.data_ns", static_cast<double>(c.data_fsync_ns));
  set("fsync.journal_count", static_cast<double>(c.journal_fsyncs));
  set("fsync.journal_ns", static_cast<double>(c.journal_fsync_ns));
  // Transient-retry instrumentation (ISSUE 7); unconditional for the same
  // reason. All zero unless the retry policy is enabled and a physical
  // read actually failed.
  const PagerRetryStats r = pager.retry_stats();
  set("retry.read_retries", static_cast<double>(r.read_retries));
  set("retry.read_recoveries", static_cast<double>(r.read_recoveries));
  set("retry.read_exhausted", static_cast<double>(r.read_exhausted));
  set("retry.backoff_waits", static_cast<double>(r.backoff_waits));
  set("retry.backoff_wait_ns", static_cast<double>(r.backoff_wait_ns));
  set("retry.crc_rereads", static_cast<double>(r.crc_rereads));
  set("retry.crc_reread_recoveries",
      static_cast<double>(r.crc_reread_recoveries));
}

}  // namespace obs
}  // namespace cdb
