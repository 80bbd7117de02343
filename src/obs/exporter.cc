#include "obs/exporter.h"

#include <cstdio>

namespace anc::obs {

namespace {

std::string SanitizeMetricName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) c = '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, 1, '_');
  return out;
}

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string RenderPrometheus(const StatsSnapshot& snapshot) {
  std::string out;
  for (const auto& entry : snapshot.counters) {
    const std::string name = SanitizeMetricName(entry.name);
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(entry.value) + "\n";
  }
  for (const auto& entry : snapshot.gauges) {
    const std::string name = SanitizeMetricName(entry.name);
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + std::to_string(entry.value) + "\n";
  }
  for (const auto& entry : snapshot.histograms) {
    const std::string name = SanitizeMetricName(entry.name);
    out += "# TYPE " + name + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t b = 0; b < entry.buckets.size(); ++b) {
      cumulative += entry.buckets[b];
      const bool last = b + 1 == entry.buckets.size();
      const std::string le =
          last ? "+Inf"
               : FormatDouble(HistogramBucketUpperBound(
                     static_cast<uint32_t>(b)));
      out += name + "_bucket{le=\"" + le +
             "\"} " + std::to_string(cumulative) + "\n";
    }
    out += name + "_sum " + FormatDouble(entry.sum) + "\n";
    out += name + "_count " + std::to_string(entry.count) + "\n";
  }
  return out;
}

}  // namespace anc::obs
