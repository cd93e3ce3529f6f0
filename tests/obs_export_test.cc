// Exporter correctness (ISSUE 6): the Chrome-trace export must round-trip
// through the strict JSON parser with valid nesting and timestamps, the
// Prometheus exposition must be deterministic with sorted, sanitized
// names and label escaping, FormatDouble must be locale-independent and
// byte-compatible with the historic "C"-locale %g output, and
// Snapshot/SnapshotDelta must do clamped interval arithmetic. Runs under
// asan (LABELS sanitize).

#include "obs/export.h"

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cdb {
namespace obs {
namespace {

// ---------------------------------------------------------------- doubles

TEST(FormatDoubleTest, MatchesPrintfGReference) {
  const double cases[] = {0.0,    1.0,     -1.0,       0.5,    1.25,
                          3.125,  1e-3,    12345.678,  1e15,   1e16,
                          -2.5e7, 0.1,     1.0 / 3.0,  M_PI,   1e300,
                          5e-324, 2.5e-10, -123456.75, 1e14,   99.999};
  for (double v : cases) {
    // Non-integral (or huge) values must match what JsonWriter printed
    // before: C-locale "%g" at shortest-round-trip precision.
    const std::string got = FormatDouble(v);
    // Round-trip: parsing the text recovers the exact bits.
    EXPECT_EQ(std::strtod(got.c_str(), nullptr), v) << got;
    // Integral magnitudes below 1e15 print as plain integers ("%.0f").
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.0f", v);
      EXPECT_EQ(got, buf);
    }
  }
  EXPECT_EQ(FormatDouble(0.0), "0");
  EXPECT_EQ(FormatDouble(-3.0), "-3");
  EXPECT_EQ(FormatDouble(0.5), "0.5");
  EXPECT_EQ(FormatDouble(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(FormatDouble(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(FormatDouble(std::nan("")), "nan");
}

TEST(FormatDoubleTest, IgnoresLocale) {
  // A comma-decimal locale must not leak into the output. Skipped when the
  // locale is not installed in the test environment.
  const char* prev = std::setlocale(LC_NUMERIC, "de_DE.UTF-8");
  if (prev == nullptr) GTEST_SKIP() << "de_DE.UTF-8 locale not available";
  EXPECT_EQ(FormatDouble(1.25), "1.25");
  EXPECT_EQ(FormatDouble(12345.678), "12345.678");
  std::setlocale(LC_NUMERIC, "C");
}

// ----------------------------------------------------------- chrome trace

// Hand-built two-level profile: root (1 ms self) with children "filter"
// (2 ms) and "refine" (3 ms self + child "lp" 4 ms).
ExplainProfile MakeProfile() {
  ExplainProfile p;
  p.root.name = "select";
  p.root.invocations = 1;
  p.root.self.wall_ms = 1;
  p.root.self.index_fetches = 10;
  ProfileNode filter;
  filter.name = "filter";
  filter.invocations = 1;
  filter.self.wall_ms = 2;
  filter.self.index_fetches = 7;
  ProfileNode refine;
  refine.name = "refine";
  refine.invocations = 1;
  refine.self.wall_ms = 3;
  refine.self.tuple_reads = 5;
  ProfileNode lp;
  lp.name = "lp";
  lp.invocations = 4;
  lp.self.wall_ms = 4;
  refine.children.push_back(lp);
  p.root.children.push_back(filter);
  p.root.children.push_back(refine);
  p.totals = p.root.Total();
  return p;
}

// Flattened view of one trace event.
struct Event {
  std::string name;
  double ts = 0, dur = 0;
  int64_t tid = 0;
};

std::vector<Event> ParseEvents(const std::string& trace) {
  Result<JsonValue> doc = ParseJson(trace);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  std::vector<Event> events;
  if (!doc.ok()) return events;
  const JsonValue* arr = doc.value().Find("traceEvents");
  EXPECT_NE(arr, nullptr);
  if (arr == nullptr) return events;
  for (const JsonValue& e : arr->items) {
    Event ev;
    ev.name = e.Find("name")->string_value;
    ev.ts = e.Find("ts")->number;
    ev.dur = e.Find("dur")->number;
    ev.tid = static_cast<int64_t>(e.Find("tid")->number);
    EXPECT_EQ(e.Find("ph")->string_value, "X");
    EXPECT_EQ(e.Find("pid")->number, 1);
    EXPECT_GE(ev.dur, 0.0);
    events.push_back(ev);
  }
  return events;
}

TEST(ChromeTraceTest, RoundTripsThroughStrictParserWithValidNesting) {
  ExplainProfile p1 = MakeProfile();
  ExplainProfile p2 = MakeProfile();
  std::string trace = ChromeTraceJson({&p1, nullptr, &p2});
  std::vector<Event> events = ParseEvents(trace);
  // 4 nodes per profile; the null entry contributes nothing.
  ASSERT_EQ(events.size(), 8u);

  auto find = [&](const std::string& name, int64_t tid) -> const Event* {
    for (const Event& e : events) {
      if (e.name == name && e.tid == tid) return &e;
    }
    return nullptr;
  };
  for (int64_t tid : {1, 3}) {  // Null entry still consumed tid 2.
    const Event* root = find("select", tid);
    const Event* filter = find("filter", tid);
    const Event* refine = find("refine", tid);
    const Event* lp = find("lp", tid);
    ASSERT_NE(root, nullptr);
    ASSERT_NE(filter, nullptr);
    ASSERT_NE(refine, nullptr);
    ASSERT_NE(lp, nullptr);
    // Root spans its inclusive total: 1+2+3+4 ms = 10000 us from ts 0.
    EXPECT_DOUBLE_EQ(root->ts, 0.0);
    EXPECT_DOUBLE_EQ(root->dur, 10000.0);
    // Children nest strictly inside the parent and do not overlap:
    // self time first, then children back to back.
    EXPECT_DOUBLE_EQ(filter->ts, 1000.0);
    EXPECT_DOUBLE_EQ(filter->dur, 2000.0);
    EXPECT_DOUBLE_EQ(refine->ts, 3000.0);
    EXPECT_DOUBLE_EQ(refine->dur, 7000.0);  // 3 self + 4 child.
    EXPECT_DOUBLE_EQ(lp->ts, 6000.0);
    EXPECT_DOUBLE_EQ(lp->dur, 4000.0);
    for (const Event* child : {filter, refine, lp}) {
      EXPECT_GE(child->ts, root->ts);
      EXPECT_LE(child->ts + child->dur, root->ts + root->dur + 1e-9);
    }
    EXPECT_GE(lp->ts, refine->ts);
    EXPECT_LE(lp->ts + lp->dur, refine->ts + refine->dur + 1e-9);
  }
  EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(ChromeTraceTest, EmptyProfileListIsValidJson) {
  std::string trace = ChromeTraceJson({});
  Result<JsonValue> doc = ParseJson(trace);
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc.value().Find("traceEvents")->items.empty());
}

// ------------------------------------------------------------- prometheus

TEST(PrometheusTest, ExportsSortedSanitizedAndCumulative) {
  MetricsRegistry reg(/*enabled=*/true);
  reg.counter("dual.refine.lp_calls")->Increment(42);
  reg.counter("a.first")->Increment(1);
  reg.gauge("pool.resident_frames")->Set(64.5);

  std::string text = ToPrometheus(reg.Snapshot());
  // Dots sanitized, TYPE lines present.
  EXPECT_NE(text.find("# TYPE a_first counter"), std::string::npos);
  EXPECT_NE(text.find("a_first 1\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dual_refine_lp_calls counter"),
            std::string::npos);
  EXPECT_NE(text.find("dual_refine_lp_calls 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pool_resident_frames gauge"),
            std::string::npos);
  EXPECT_NE(text.find("pool_resident_frames 64.5\n"), std::string::npos);
  // Counters sort by name: a_first before dual_refine_lp_calls.
  EXPECT_LT(text.find("a_first"), text.find("dual_refine_lp_calls"));
  // Deterministic: a second render is byte-identical.
  EXPECT_EQ(text, ToPrometheus(reg.Snapshot()));
}

TEST(PrometheusTest, EscapesLabelValuesAndAppliesThemEverywhere) {
  MetricsRegistry reg(/*enabled=*/true);
  reg.counter("c")->Increment(7);
  reg.gauge("g")->Set(1.5);
  std::string text = ToPrometheus(
      reg.Snapshot(), {{"db", "a\\b\"c\nd"}, {"host", "box1"}});
  EXPECT_NE(text.find("c{db=\"a\\\\b\\\"c\\nd\",host=\"box1\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("g{db=\"a\\\\b\\\"c\\nd\",host=\"box1\"} 1.5\n"),
            std::string::npos);
}

TEST(PrometheusTest, SanitizesLeadingDigit) {
  // A leading digit is not a valid first character; it is replaced (digits
  // are only kept at position > 0).
  MetricsRegistry reg(/*enabled=*/true);
  reg.counter("2fast.v2")->Increment(1);
  std::string text = ToPrometheus(reg.Snapshot());
  EXPECT_NE(text.find("# TYPE _fast_v2 counter"), std::string::npos);
}

// ---------------------------------------------------------- snapshot math

TEST(SnapshotDeltaTest, ClampedIntervalArithmetic) {
  MetricsRegistry reg(/*enabled=*/true);
  Counter* c = reg.counter("c");
  Gauge* g = reg.gauge("g");

  c->Increment(5);
  g->Set(1.0);
  MetricsSnapshot before = reg.Snapshot();

  c->Increment(7);
  g->Set(2.5);
  reg.counter("fresh")->Increment(9);  // Absent from `before`: taken whole.
  MetricsSnapshot after = reg.Snapshot();

  MetricsSnapshot delta = SnapshotDelta(after, before);
  EXPECT_EQ(delta.counters.at("c"), 7u);
  EXPECT_EQ(delta.counters.at("fresh"), 9u);
  EXPECT_DOUBLE_EQ(delta.gauges.at("g"), 2.5);  // Point-in-time, not diff.

  // A reset (later < earlier) clamps to zero instead of underflowing.
  MetricsSnapshot wrapped = SnapshotDelta(before, after);
  EXPECT_EQ(wrapped.counters.at("c"), 0u);
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Value(std::numeric_limits<double>::infinity());
  w.Value(std::nan(""));
  w.Value(1.5);
  w.EndArray();
  EXPECT_EQ(w.TakeString(), "[null,null,1.5]");
}

}  // namespace
}  // namespace obs
}  // namespace cdb
