#ifndef MOVD_SERVE_METRICS_H_
#define MOVD_SERVE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

#include "serve/artifact_cache.h"
#include "util/status.h"
#include "util/summary.h"

namespace movd {

/// Serving counters for one QueryEngine: request outcomes, overlay-cache
/// effectiveness as seen per-request, and end-to-end service latency. All
/// counters are monotonic atomics — reading them never blocks the serving
/// path. Cache occupancy/eviction stats live in ArtifactCache::Stats and
/// are passed in at dump time so one report covers both.
///
/// Thread-safety (DESIGN.md §12): lock-free by design, so no
/// MOVD_GUARDED_BY capabilities here. Every counter is a monotonic
/// relaxed atomic increment (LatencyHistogram buckets included); dumps
/// read each counter independently, so a report is per-counter exact but
/// not a cross-counter snapshot — fine for dashboards, and the price of
/// never blocking RecordRequest.
class ServeMetrics {
 public:
  /// Records one finished request: terminal status, end-to-end seconds
  /// (queue wait + solve), and whether the overlay artifact was served
  /// from cache.
  void RecordRequest(StatusCode status, double seconds, bool cache_hit);

  /// Records the per-phase split of one solved pipeline request: seconds
  /// spent obtaining the overlay artifact (VD generation + overlap, or a
  /// cache hit) and seconds in the Optimizer. Only OK pipeline requests
  /// report phases (SSC and failed requests have no phase split), so the
  /// phase counts can be below requests().
  void RecordPhases(double overlay_seconds, double optimize_seconds);

  /// Records one successfully applied dataset mutation (the request itself
  /// is also counted through RecordRequest, like any other request).
  void RecordMutation();

  uint64_t requests() const { return requests_.load(); }
  uint64_t ok() const { return ok_.load(); }
  uint64_t deadline_exceeded() const { return deadline_exceeded_.load(); }
  uint64_t invalid() const { return invalid_.load(); }
  uint64_t internal_errors() const { return internal_errors_.load(); }
  uint64_t shed() const { return shed_.load(); }
  uint64_t mutations() const { return mutations_.load(); }
  uint64_t overlay_hits() const { return overlay_hits_.load(); }
  const LatencyHistogram& latency() const { return latency_; }
  const LatencyHistogram& overlay_latency() const { return overlay_latency_; }
  const LatencyHistogram& optimize_latency() const {
    return optimize_latency_;
  }

  /// One-object JSON dump of every counter plus the cache stats (the
  /// STATS response body of the line protocol).
  std::string Json(const ArtifactCache::Stats& cache) const;

  /// Human-readable dump (util/table) for shutdown reports.
  void DumpTable(std::FILE* out, const ArtifactCache::Stats& cache) const;

 private:
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> ok_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> invalid_{0};
  std::atomic<uint64_t> internal_errors_{0};
  std::atomic<uint64_t> shed_{0};       ///< rejected by admission control
  std::atomic<uint64_t> mutations_{0};  ///< applied dataset mutations
  std::atomic<uint64_t> overlay_hits_{0};
  LatencyHistogram latency_;
  LatencyHistogram overlay_latency_;   ///< artifact phase (VD + overlap)
  LatencyHistogram optimize_latency_;  ///< Optimizer phase (Fermat–Weber)
};

}  // namespace movd

#endif  // MOVD_SERVE_METRICS_H_
