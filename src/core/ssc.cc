#include "core/ssc.h"

#include <atomic>
#include <limits>

#include "core/weighted_distance.h"
#include "model/query_model.h"
#include "trace/trace.h"
#include "util/check.h"

namespace movd {

OptimizerResult SolveSsc(const MolqQuery& query,
                         const OptimizerOptions& options) {
  const size_t n = query.sets.size();
  MOVD_CHECK_MSG(n > 0, "a MOLQ needs at least one object set");
  size_t combinations = 1;
  for (const ObjectSet& set : query.sets) {
    MOVD_CHECK_MSG(!set.objects.empty(),
                   "every query set needs at least one object");
    MOVD_CHECK_MSG(combinations <= std::numeric_limits<size_t>::max() /
                                       set.objects.size(),
                   "SSC's combination count must fit in size_t");
    combinations *= set.objects.size();
  }
  TRACE_SPAN("ssc_scan");  // its chunk spans carry the counters

  // Every object's demand point and offset, built once: a combination's
  // problem is one entry per set, and its offset their sum in set order,
  // exactly what BuildFermatWeberProblem returns for the whole group.
  std::vector<std::vector<WeightedPoint>> points_of(n);
  std::vector<std::vector<double>> offset_of(n);
  std::vector<WeightedPoint> single;
  for (size_t s = 0; s < n; ++s) {
    for (size_t o = 0; o < query.sets[s].objects.size(); ++o) {
      offset_of[s].push_back(BuildFermatWeberProblem(
          query, {{static_cast<int32_t>(s), static_cast<int32_t>(o)}},
          &single));
      points_of[s].push_back(single.front());
    }
  }
  // Combination i of the odometer enumeration, set 0 fastest.
  const auto decode = [&](size_t i, std::vector<PoiRef>* combo) {
    combo->resize(n);
    for (size_t s = 0; s < n; ++s) {
      const size_t size = query.sets[s].objects.size();
      (*combo)[s] = {static_cast<int32_t>(s), static_cast<int32_t>(i % size)};
      i /= size;
    }
  };
  // A worker's chunk is a run of consecutive combinations, so each worker
  // keeps an odometer and decodes an index only where its run starts. The
  // scan id keeps one call's odometer out of the next call's runs.
  struct Odometer {
    uint64_t scan = 0;
    size_t next = 0;
    std::vector<PoiRef> combo;
  };
  static std::atomic<uint64_t> scans{0};
  const uint64_t scan_id = scans.fetch_add(1) + 1;
  const BatchResult scan = ScanBestK(
      combinations,
      [&](size_t i, std::vector<WeightedPoint>* points) {
        thread_local Odometer odo;
        if (odo.scan != scan_id || i != odo.next) {
          decode(i, &odo.combo);
          odo.scan = scan_id;
        } else {
          for (PoiRef& ref : odo.combo) {
            if (++ref.object < static_cast<int32_t>(
                                   points_of[ref.set].size())) {
              break;
            }
            ref.object = 0;
          }
        }
        odo.next = i + 1;
        points->clear();
        double offset = 0.0;
        for (const PoiRef& ref : odo.combo) {
          points->push_back(points_of[ref.set][ref.object]);
          offset += offset_of[ref.set][ref.object];
        }
        return offset;
      },
      [&](size_t a, size_t b) {
        std::vector<PoiRef> ga, gb;
        decode(a, &ga);
        decode(b, &gb);
        return GroupBefore(ga, gb);
      },
      1, options);

  OptimizerResult result;
  result.cancelled = scan.cancelled;
  result.stats = scan.stats;
  if (scan.cancelled) return result;
  MOVD_CHECK(!scan.best.empty());
  const BatchAnswer& best = scan.best.front();
  result.location = best.location;
  result.cost = best.cost;
  decode(best.problem, &result.group);
  return result;
}

}  // namespace movd
