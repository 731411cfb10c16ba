#include "util/summary.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/check.h"

namespace movd {
namespace {

// Microsecond upper bound of bucket i: 2^i (bucket 0 catches sub-1us).
uint64_t BucketBoundUs(int i) { return 1ull << i; }

void AppendJsonNumber(std::string* out, const char* name, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.9g", name, v);
  *out += buf;
}

}  // namespace

double SortedQuantile(const std::vector<double>& sorted, double q) {
  MOVD_CHECK_MSG(!sorted.empty(), "quantile of an empty sample");
  MOVD_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile q must be in [0, 1]");
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

Summary Summary::FromSamples(std::vector<double> samples, bool iqr_reject) {
  Summary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());

  const size_t total = samples.size();
  std::vector<double> kept;
  if (iqr_reject && samples.size() >= 4) {
    const double q1 = SortedQuantile(samples, 0.25);
    const double q3 = SortedQuantile(samples, 0.75);
    const double fence = 1.5 * (q3 - q1);
    for (const double v : samples) {
      if (v >= q1 - fence && v <= q3 + fence) kept.push_back(v);
    }
  } else {
    kept = std::move(samples);
  }
  // The fence is centred on the quartiles, so at least half the sample
  // always survives; kept is never empty.
  s.count = kept.size();
  s.outliers = total - kept.size();
  s.min = kept.front();
  s.max = kept.back();
  s.median = SortedQuantile(kept, 0.50);
  s.p95 = SortedQuantile(kept, 0.95);
  double sum = 0.0;
  for (const double v : kept) sum += v;
  s.mean = sum / static_cast<double>(kept.size());
  if (kept.size() >= 2) {
    double ss = 0.0;
    for (const double v : kept) ss += (v - s.mean) * (v - s.mean);
    s.stddev = std::sqrt(ss / static_cast<double>(kept.size() - 1));
  }
  return s;
}

std::string Summary::Json() const {
  std::string out = "{";
  out += "\"count\":" + std::to_string(count);
  out += ",\"outliers\":" + std::to_string(outliers);
  out += ",";
  AppendJsonNumber(&out, "min", min);
  out += ",";
  AppendJsonNumber(&out, "median", median);
  out += ",";
  AppendJsonNumber(&out, "mean", mean);
  out += ",";
  AppendJsonNumber(&out, "p95", p95);
  out += ",";
  AppendJsonNumber(&out, "max", max);
  out += ",";
  AppendJsonNumber(&out, "stddev", stddev);
  out += "}";
  return out;
}

void LatencyHistogram::Record(double seconds) {
  const double us = seconds * 1e6;
  int bucket = 0;
  while (bucket < kBuckets - 1 &&
         us >= static_cast<double>(BucketBoundUs(bucket))) {
    ++bucket;
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

uint64_t LatencyHistogram::Count() const {
  uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

double LatencyHistogram::PercentileSeconds(double p) const {
  MOVD_CHECK_MSG(p > 0.0 && p <= 100.0,
                 "percentile must be in (0, 100]");
  const uint64_t total = Count();
  if (total == 0) return 0.0;
  // Rank of the percentile observation, 1-based, rounded up.
  const uint64_t rank =
      static_cast<uint64_t>((p / 100.0) * static_cast<double>(total - 1)) + 1;
  uint64_t cumulative = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (cumulative >= rank) {
      return static_cast<double>(BucketBoundUs(i)) * 1e-6;
    }
  }
  return static_cast<double>(BucketBoundUs(kBuckets - 1)) * 1e-6;
}

std::string LatencyHistogram::Json() const {
  std::string out = "[";
  for (int i = 0; i < kBuckets; ++i) {
    if (i > 0) out += ",";
    out += std::to_string(buckets_[i].load(std::memory_order_relaxed));
  }
  out += "]";
  return out;
}

Summary LatencyHistogram::ToSummary() const {
  Summary s;
  uint64_t total = 0;
  double sum = 0.0, sum_sq = 0.0;
  int first = -1, last = -1;
  for (int i = 0; i < kBuckets; ++i) {
    const uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    if (c == 0) continue;
    if (first < 0) first = i;
    last = i;
    total += c;
    const double bound = static_cast<double>(BucketBoundUs(i)) * 1e-6;
    sum += static_cast<double>(c) * bound;
    sum_sq += static_cast<double>(c) * bound * bound;
  }
  if (total == 0) return s;
  s.count = total;
  s.min = static_cast<double>(BucketBoundUs(first)) * 1e-6;
  s.max = static_cast<double>(BucketBoundUs(last)) * 1e-6;
  s.median = PercentileSeconds(50);
  s.p95 = PercentileSeconds(95);
  s.mean = sum / static_cast<double>(total);
  if (total >= 2) {
    const double var =
        (sum_sq - sum * s.mean) / static_cast<double>(total - 1);
    s.stddev = var > 0.0 ? std::sqrt(var) : 0.0;
  }
  return s;
}

}  // namespace movd
