#include "serve/metrics.h"

#include "util/table.h"

namespace movd {

void ServeMetrics::RecordRequest(StatusCode status, double seconds,
                                 bool cache_hit) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  switch (status) {
    case StatusCode::kOk:
      ok_.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kCancelled:
    case StatusCode::kDeadlineExceeded:
      // The serving path cancels work *because* the deadline fired, so a
      // surfaced kCancelled is the same client-visible outcome.
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kUnsupportedVerb:
      invalid_.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kOverloaded:
      shed_.fetch_add(1, std::memory_order_relaxed);
      break;
    default:  // kDataLoss, kIoError, kInternal: the server's fault
      internal_errors_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  if (cache_hit) overlay_hits_.fetch_add(1, std::memory_order_relaxed);
  latency_.Record(seconds);
}

void ServeMetrics::RecordMutation() {
  mutations_.fetch_add(1, std::memory_order_relaxed);
}

void ServeMetrics::RecordPhases(double overlay_seconds,
                                double optimize_seconds) {
  overlay_latency_.Record(overlay_seconds);
  optimize_latency_.Record(optimize_seconds);
}

std::string ServeMetrics::Json(const ArtifactCache::Stats& cache) const {
  char buf[256];
  std::string out = "{";
  const auto field = [&out](const char* name, uint64_t v, bool first = false) {
    if (!first) out += ",";
    out += "\"";
    out += name;
    out += "\":";
    out += std::to_string(v);
  };
  field("requests", requests(), /*first=*/true);
  field("ok", ok());
  field("deadline_exceeded", deadline_exceeded());
  field("invalid", invalid());
  field("internal_errors", internal_errors());
  field("shed", shed());
  field("mutations", mutations());
  field("overlay_cache_hits", overlay_hits());
  field("cache_hits", cache.hits);
  field("cache_misses", cache.misses);
  field("cache_evictions", cache.evictions);
  field("cache_inserts", cache.inserts);
  field("cache_oversize", cache.oversize);
  field("cache_wait_timeouts", cache.wait_timeouts);
  field("cache_bytes", cache.bytes);
  field("cache_capacity", cache.capacity);
  field("cache_entries", cache.entries);
  std::snprintf(buf, sizeof(buf), ",\"p50_ms\":%.3f,\"p99_ms\":%.3f",
                latency_.PercentileSeconds(50) * 1e3,
                latency_.PercentileSeconds(99) * 1e3);
  out += buf;
  // Per-phase split (overlay-artifact phase vs Optimizer phase) of OK
  // pipeline requests — the tracing subsystem's aggregate view, exported
  // through STATS so dashboards see where serve time goes.
  std::snprintf(buf, sizeof(buf),
                ",\"overlay_p50_ms\":%.3f,\"overlay_p99_ms\":%.3f"
                ",\"optimize_p50_ms\":%.3f,\"optimize_p99_ms\":%.3f",
                overlay_latency_.PercentileSeconds(50) * 1e3,
                overlay_latency_.PercentileSeconds(99) * 1e3,
                optimize_latency_.PercentileSeconds(50) * 1e3,
                optimize_latency_.PercentileSeconds(99) * 1e3);
  out += buf;
  out += ",\"latency_buckets\":" + latency_.Json();
  out += "}";
  return out;
}

void ServeMetrics::DumpTable(std::FILE* out,
                             const ArtifactCache::Stats& cache) const {
  Table table({"metric", "value"});
  const auto row = [&table](const std::string& name, uint64_t v) {
    table.AddRow({name, std::to_string(v)});
  };
  row("requests", requests());
  row("ok", ok());
  row("deadline_exceeded", deadline_exceeded());
  row("invalid", invalid());
  row("internal_errors", internal_errors());
  row("shed", shed());
  row("mutations", mutations());
  row("overlay_cache_hits", overlay_hits());
  table.AddRow({"p50", Table::Fmt(latency_.PercentileSeconds(50) * 1e3, 3) +
                           "ms"});
  table.AddRow({"p99", Table::Fmt(latency_.PercentileSeconds(99) * 1e3, 3) +
                           "ms"});
  table.AddRow(
      {"overlay p50",
       Table::Fmt(overlay_latency_.PercentileSeconds(50) * 1e3, 3) + "ms"});
  table.AddRow(
      {"optimize p50",
       Table::Fmt(optimize_latency_.PercentileSeconds(50) * 1e3, 3) + "ms"});
  row("cache hits", cache.hits);
  row("cache misses", cache.misses);
  row("cache evictions", cache.evictions);
  row("cache resident bytes", cache.bytes);
  row("cache resident entries", cache.entries);
  table.Print(out);
}

}  // namespace movd
