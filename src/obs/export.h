// Exporters for the obs substrate (ISSUE 6): Chrome-trace JSON for Tracer
// phase trees and a Prometheus-style text exposition for MetricsRegistry
// snapshots. Both are pure renderers over data the rest of the layer
// already produces — no new instrumentation, no global state.
//
// Chrome trace: ExplainProfiles carry relative wall times, not absolute
// timestamps, so the export lays each profile out on a synthetic timeline:
// a node's event spans [start, start + Total().wall_ms), its exclusive
// (self) time is placed first and its children follow back to back. The
// result loads in chrome://tracing and Perfetto (JSON "traceEvents" with
// complete "X" events, microsecond units) and every child event nests
// strictly inside its parent by construction.
//
// Prometheus: one "# TYPE" line plus a value line per metric, sorted by
// name (MetricsSnapshot maps are sorted), all floats via FormatDouble —
// deterministic and locale-independent, so expositions diff cleanly across
// runs/machines.

#ifndef CDB_OBS_EXPORT_H_
#define CDB_OBS_EXPORT_H_

#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cdb {
namespace obs {

/// Writes one Chrome-trace document covering `profiles` (null entries are
/// skipped). Each profile gets its own synthetic thread (tid = position+1)
/// starting at ts 0, so traces of a sampled batch render side by side.
void WriteChromeTrace(const std::vector<const ExplainProfile*>& profiles,
                      JsonWriter* w);
std::string ChromeTraceJson(const std::vector<const ExplainProfile*>& profiles);

/// A label attached to every sample line of an exposition
/// (e.g. {"db", "/data/prod"}). Values are escaped per the exposition
/// format (backslash, double quote, newline).
struct PrometheusLabel {
  std::string name;
  std::string value;
};

/// Renders `snapshot` in the Prometheus text exposition format. Metric
/// names are sanitized ('.' and any other illegal character become '_');
/// counters export as `counter`, gauges as `gauge`.
void WritePrometheus(const MetricsSnapshot& snapshot,
                     const std::vector<PrometheusLabel>& labels,
                     std::string* out);
std::string ToPrometheus(const MetricsSnapshot& snapshot,
                         const std::vector<PrometheusLabel>& labels = {});

}  // namespace obs
}  // namespace cdb

#endif  // CDB_OBS_EXPORT_H_
