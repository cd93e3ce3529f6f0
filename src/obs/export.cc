#include "obs/export.h"

#include <cctype>
#include <cmath>

namespace cdb {
namespace obs {

namespace {

// One complete ("X") event per profile node on a synthetic timeline: self
// time first, then the children back to back, so the last child ends
// exactly at start + Total().wall_ms and nesting is strict.
void EmitNode(const ProfileNode& node, double start_us, int tid,
              JsonWriter* w) {
  const PhaseCost total = node.Total();
  const double total_us = total.wall_ms * 1000.0;
  w->BeginObject();
  w->Key("name").Value(node.name);
  w->Key("ph").Value("X");
  w->Key("ts").Value(start_us);
  w->Key("dur").Value(total_us);
  w->Key("pid").Value(1);
  w->Key("tid").Value(tid);
  w->Key("args").BeginObject();
  w->Key("invocations").Value(node.invocations);
  w->Key("index_fetches").Value(total.index_fetches);
  w->Key("index_reads").Value(total.index_reads);
  w->Key("tuple_fetches").Value(total.tuple_fetches);
  w->Key("tuple_reads").Value(total.tuple_reads);
  w->Key("self_wall_ms").Value(node.self.wall_ms);
  w->EndObject();
  w->EndObject();
  double t = start_us + node.self.wall_ms * 1000.0;
  for (const ProfileNode& child : node.children) {
    EmitNode(child, t, tid, w);
    t += child.Total().wall_ms * 1000.0;
  }
}

}  // namespace

void WriteChromeTrace(const std::vector<const ExplainProfile*>& profiles,
                      JsonWriter* w) {
  w->BeginObject();
  w->Key("displayTimeUnit").Value("ms");
  w->Key("traceEvents").BeginArray();
  int tid = 0;
  for (const ExplainProfile* profile : profiles) {
    ++tid;
    if (profile == nullptr) continue;
    EmitNode(profile->root, /*start_us=*/0.0, tid, w);
  }
  w->EndArray();
  w->EndObject();
}

std::string ChromeTraceJson(
    const std::vector<const ExplainProfile*>& profiles) {
  JsonWriter w;
  WriteChromeTrace(profiles, &w);
  return w.TakeString();
}

namespace {

std::string SanitizeMetricName(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = std::isalpha(static_cast<unsigned char>(c)) != 0;
    const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    if (alpha || c == '_' || c == ':' || (digit && i > 0)) {
      out += c;
    } else {
      out += '_';
    }
  }
  return out;
}

// Exposition-format label-value escaping: backslash, double quote, newline.
std::string EscapeLabelValue(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// Prometheus sample values: integers stay integral, floats go through the
// locale-independent shortest form, infinities spell "+Inf"/"-Inf".
std::string PromValue(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  return FormatDouble(v);
}

// "{a="x",b="y"}", or "" without labels.
std::string LabelBlock(const std::vector<PrometheusLabel>& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (const PrometheusLabel& l : labels) {
    if (out.size() > 1) out += ',';
    out += SanitizeMetricName(l.name);
    out += "=\"";
    out += EscapeLabelValue(l.value);
    out += '"';
  }
  out += '}';
  return out;
}

}  // namespace

void WritePrometheus(const MetricsSnapshot& snapshot,
                     const std::vector<PrometheusLabel>& labels,
                     std::string* out) {
  const std::string plain = LabelBlock(labels);
  for (const auto& [name, value] : snapshot.counters) {
    const std::string n = SanitizeMetricName(name);
    *out += "# TYPE " + n + " counter\n";
    *out += n + plain + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string n = SanitizeMetricName(name);
    *out += "# TYPE " + n + " gauge\n";
    *out += n + plain + " " + PromValue(value) + "\n";
  }
}

std::string ToPrometheus(const MetricsSnapshot& snapshot,
                         const std::vector<PrometheusLabel>& labels) {
  std::string out;
  WritePrometheus(snapshot, labels, &out);
  return out;
}

}  // namespace obs
}  // namespace cdb
