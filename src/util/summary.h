#ifndef MOVD_UTIL_SUMMARY_H_
#define MOVD_UTIL_SUMMARY_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace movd {

/// The repo-wide statistics vocabulary (DESIGN.md §10). Two consumers,
/// one implementation:
///
///   - the benchmark harness (src/bench_lib) summarises a small batch of
///     per-repetition wall times exactly with `Summary`;
///   - the serving layer (src/serve/metrics.h) streams unbounded request
///     latencies into the lock-free `LatencyHistogram`.
///
/// Both serialise through the same JSON conventions so `BENCH_*.json`
/// and the serve STATS body agree on field names and units.

/// Exact quantile of an ascending-sorted sample, q in [0, 1], with linear
/// interpolation between adjacent order statistics (type-7 estimator, the
/// numpy/R default). Requires a non-empty sorted input.
double SortedQuantile(const std::vector<double>& sorted, double q);

/// Noise-aware summary of a small sample (benchmark repetitions). All
/// statistics are computed over the samples that survive Tukey's IQR
/// fence: a sample is an outlier when it lies more than 1.5·IQR outside
/// [Q1, Q3]. `outliers` counts the rejected samples; min/max/mean/stddev
/// cover the kept ones only, so one context-switch-inflated repetition
/// cannot drag the mean. stddev is the sample standard deviation (n-1).
struct Summary {
  uint64_t count = 0;     ///< samples kept after IQR rejection
  uint64_t outliers = 0;  ///< samples rejected by the IQR fence
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double median = 0.0;
  double p95 = 0.0;
  double stddev = 0.0;

  /// Summarises `samples` (unordered, unmodified). `iqr_reject` off keeps
  /// every sample (used when the caller wants raw statistics).
  static Summary FromSamples(std::vector<double> samples,
                             bool iqr_reject = true);

  /// One JSON object: {"count":..,"outliers":..,"min":..,"median":..,
  /// "mean":..,"p95":..,"max":..,"stddev":..}. Numbers use %.9g — enough
  /// to roundtrip nanosecond-scale seconds through text.
  std::string Json() const;
};

/// Fixed-bucket latency histogram: bucket i counts observations with
/// latency in [2^(i-1), 2^i) microseconds (bucket 0: < 1us; the last
/// bucket is an overflow catch-all of ~67s and up). Fixed buckets keep
/// Record() a single atomic increment — no allocation, no lock — which is
/// what a per-request hot path wants; the price is that percentiles are
/// resolved to bucket upper bounds (~2x resolution), plenty for p50/p99
/// dashboards. Exact small-sample statistics are `Summary`'s job.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 28;

  /// Records one observation. Thread-safe (relaxed atomic increment).
  void Record(double seconds);

  /// Total observations recorded.
  uint64_t Count() const;

  /// Upper bound (in seconds) of the bucket containing the p-th percentile
  /// observation, p in (0, 100]. Returns 0 when empty.
  double PercentileSeconds(double p) const;

  /// Bucket counts as a JSON array ("[0,3,17,...]").
  std::string Json() const;

  /// Bucket-resolution Summary view: count plus median/p95/min/max drawn
  /// from bucket upper bounds (mean/stddev are bucket-approximate too).
  /// Lets dashboards treat streamed histograms and exact bench summaries
  /// uniformly.
  Summary ToSummary() const;

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
};

}  // namespace movd

#endif  // MOVD_UTIL_SUMMARY_H_
