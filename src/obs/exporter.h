#ifndef ANC_OBS_EXPORTER_H_
#define ANC_OBS_EXPORTER_H_

#include <string>

#include "obs/stats.h"

namespace anc::obs {

/// Renders a snapshot in Prometheus text exposition format 0.0.4: counters
/// as `counter`, gauges as `gauge`, histograms as `histogram` with
/// cumulative `_bucket{le="..."}` lines plus `_sum` / `_count`. Metric
/// names are sanitized ('.', '-' and other non-[a-zA-Z0-9_] bytes become
/// '_').
std::string RenderPrometheus(const StatsSnapshot& snapshot);

}  // namespace anc::obs

#endif  // ANC_OBS_EXPORTER_H_
