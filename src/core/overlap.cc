#include "core/overlap.h"

#include <algorithm>
#include <map>

#include "core/pruned_overlap.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace movd {
namespace {

struct Event {
  double y;
  bool is_start;
  bool from_a;
  uint32_t index;  // OVR index within its MOVD
};

// One candidate pair found by the sweep. `a` and `b` index the operands;
// `b_first` records that b's start event found the pair, so it is
// intersected as (b, a): Region::Intersect clips its first operand by the
// second, so operand order decides the output bits.
struct CandidatePair {
  uint32_t a;
  uint32_t b : 31;
  uint32_t b_first : 1;
};
static_assert(sizeof(CandidatePair) == 8);

// Pairs per unit of parallel work. Fixed, so the chunking and with it the
// output order never depend on the thread count.
constexpr size_t kPairChunk = 256;

// Phase 1, the plane sweep: lists every candidate pair (Algorithm 3 line 4)
// in visiting order. Returns false when `cancel` fired, leaving `pairs`
// truncated.
bool SweepCandidatePairs(const Movd& a, const Movd& b,
                         const CancelToken* cancel, uint64_t* events_seen,
                         std::vector<CandidatePair>* pairs) {
  MOVD_CHECK_MSG(b.ovrs.size() < (size_t{1} << 31),
                 "overlap operand has too many OVRs for a pair record");
  // Event queue: start/end events of every OVR, sorted by descending y;
  // at equal y, start events run first so regions touching only along a
  // horizontal line still pair up (closed-boundary semantics).
  std::vector<Event> events;
  events.reserve(2 * (a.ovrs.size() + b.ovrs.size()));
  for (uint32_t i = 0; i < a.ovrs.size(); ++i) {
    events.push_back({a.ovrs[i].mbr.max_y, true, true, i});
    events.push_back({a.ovrs[i].mbr.min_y, false, true, i});
  }
  for (uint32_t i = 0; i < b.ovrs.size(); ++i) {
    events.push_back({b.ovrs[i].mbr.max_y, true, false, i});
    events.push_back({b.ovrs[i].mbr.min_y, false, false, i});
  }
  // stable_sort: events are generated in (input, OVR index) order, so
  // events tying on (y, is_start) keep that order under every sort
  // implementation and the output OVR order is reproducible.
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& x, const Event& y) {
                     if (x.y != y.y) return x.y > y.y;
                     return x.is_start && !y.is_start;
                   });

  // Status structures: active OVRs per input, keyed by their min x (the
  // paper's "balanced search tree sorted by start x-coordinates").
  using Status = std::multimap<double, uint32_t>;
  Status status_a, status_b;

  const auto handle = [&](const Event& e, const Movd& self,
                          const Movd& other, Status* current, Status* others) {
    const Ovr& ovr = self.ovrs[e.index];
    if (!e.is_start) {
      // Remove from the current status.
      auto [lo, hi] = current->equal_range(ovr.mbr.min_x);
      for (auto it = lo; it != hi; ++it) {
        if (it->second == e.index) {
          current->erase(it);
          break;
        }
      }
      return;
    }
    current->emplace(ovr.mbr.min_x, e.index);
    // Candidates: active OVRs of the other MOVD whose x-range overlaps.
    const auto end = others->upper_bound(ovr.mbr.max_x);
    for (auto it = others->begin(); it != end; ++it) {
      if (other.ovrs[it->second].mbr.max_x < ovr.mbr.min_x) continue;
      if (e.from_a) {
        pairs->push_back({e.index, it->second, 0});
      } else {
        pairs->push_back({it->second, e.index, 1});
      }
    }
  };

  for (size_t i = 0; i < events.size(); ++i) {
    // Cancellation checkpoint: every 1024 events, so the clock poll is
    // amortized over a block of sweep work.
    if (cancel != nullptr && (i & 1023u) == 0 && cancel->Expired()) {
      return false;
    }
    const Event& e = events[i];
    ++*events_seen;
    if (e.from_a) {
      handle(e, a, b, &status_a, &status_b);
    } else {
      handle(e, b, a, &status_b, &status_a);
    }
  }
  return true;
}

}  // namespace

std::vector<PoiRef> MergePois(const std::vector<PoiRef>& a,
                              const std::vector<PoiRef>& b) {
  std::vector<PoiRef> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Movd Overlap(const Movd& a, const Movd& b, BoundaryMode mode,
             OverlapStats* stats, const CancelToken* cancel, int threads,
             const CombinationBound* bound) {
  TraceSpan span("overlap_step");
  span.Counter("input_ovrs",
               static_cast<int64_t>(a.ovrs.size() + b.ovrs.size()));
  uint64_t events = 0;
  std::vector<CandidatePair> pairs;
  const bool swept = SweepCandidatePairs(a, b, cancel, &events, &pairs);
  if (stats != nullptr) {
    stats->events += events;
    stats->candidate_pairs += pairs.size();
  }
  span.Counter("candidate_pairs", static_cast<int64_t>(pairs.size()));
  Movd result;
  if (!swept) return result;

  // Phase 2, the boundary handler over fixed chunks of pairs. Each chunk
  // writes only its own slot, and the slots are concatenated in chunk
  // order below (DESIGN.md §6), so the output is the visiting order for
  // every thread count. The token is polled once per chunk; a chunk that
  // sees it fired is skipped, leaving a truncated result. A pair the bound
  // prunes is skipped before its clip; the decision is a pure function of
  // the pair, so the output stays the same for every thread count.
  struct Chunk {
    std::vector<Ovr> ovrs;
    size_t pieces = 0;  // region pieces over `ovrs`
    size_t pruned = 0;  // pairs the bound skipped
    bool done = false;
  };
  std::vector<Chunk> chunks((pairs.size() + kPairChunk - 1) / kPairChunk);
  const int used_threads = static_cast<int>(std::clamp<size_t>(
      chunks.size(), 1, static_cast<size_t>(ResolveThreads(threads))));
  span.Counter("threads", used_threads);
  ParallelFor(used_threads, chunks.size(), [&](size_t c) {
    if (TokenExpired(cancel)) return;
    const size_t begin = c * kPairChunk;
    const size_t end = std::min(begin + kPairChunk, pairs.size());
    for (size_t k = begin; k < end; ++k) {
      const Ovr& x = a.ovrs[pairs[k].a];
      const Ovr& y = b.ovrs[pairs[k].b];
      if (bound != nullptr && bound->Prunes(x.pois, y.pois)) {
        ++chunks[c].pruned;
        continue;
      }
      Ovr out;
      if (pairs[k].b_first ? IntersectOvrPair(y, x, mode, &out)
                           : IntersectOvrPair(x, y, mode, &out)) {
        chunks[c].pieces += out.region.pieces().size();
        chunks[c].ovrs.push_back(std::move(out));
      }
    }
    chunks[c].done = true;
  });

  uint64_t intersected = 0;
  uint64_t pruned = 0;
  size_t total = 0;
  size_t pieces = 0;
  for (size_t c = 0; c < chunks.size(); ++c) {
    if (chunks[c].done) {
      intersected += std::min(kPairChunk, pairs.size() - c * kPairChunk) -
                     chunks[c].pruned;
      pruned += chunks[c].pruned;
    }
    total += chunks[c].ovrs.size();
    pieces += chunks[c].pieces;
  }
  // Free the pair list, then move each chunk's OVRs out and release its
  // buffer, so peak memory stays close to the result's own size.
  std::vector<CandidatePair>().swap(pairs);
  result.ovrs.reserve(total);
  for (Chunk& chunk : chunks) {
    std::move(chunk.ovrs.begin(), chunk.ovrs.end(),
              std::back_inserter(result.ovrs));
    std::vector<Ovr>().swap(chunk.ovrs);
  }
  if (stats != nullptr) {
    if (mode == BoundaryMode::kRealRegion) {
      stats->region_intersections += intersected;
    }
    stats->pruned_pairs += pruned;
    stats->output_ovrs += total;
  }
  span.Counter("pruned_pairs", static_cast<int64_t>(pruned));
  span.Counter("output_ovrs", static_cast<int64_t>(total));
  span.Counter("output_pieces", static_cast<int64_t>(pieces));
  return result;
}

Movd OverlapAll(const std::vector<Movd>& inputs, BoundaryMode mode,
                OverlapStats* stats, const CancelToken* cancel, int threads,
                const CombinationBound* bound) {
  MOVD_CHECK_MSG(!inputs.empty(),
                 "sequential overlap needs at least one input MOVD");
  if (inputs.size() == 1) return inputs.front();
  // MOVD(∅) ⊕ X = X, so the first step reads inputs[0] in place.
  Movd acc =
      Overlap(inputs[0], inputs[1], mode, stats, cancel, threads, bound);
  for (size_t i = 2; i < inputs.size(); ++i) {
    if (TokenExpired(cancel)) break;
    acc = Overlap(acc, inputs[i], mode, stats, cancel, threads, bound);
  }
  return acc;
}

bool IntersectOvrPair(const Ovr& x, const Ovr& y, BoundaryMode mode,
                      Ovr* out) {
  if (mode == BoundaryMode::kMbr) {
    // Algorithm 4: MBR intersection only. Callers guarantee x/y range
    // overlap, so the rectangle intersection is non-empty.
    out->mbr = x.mbr.Intersect(y.mbr);
    out->region = Region();
    out->pois = MergePois(x.pois, y.pois);
    return true;
  }
  // Algorithm 3: real region intersection.
  Region region = Region::Intersect(x.region, y.region);
  if (region.Empty()) return false;
  out->mbr = region.Bbox();
  out->region = std::move(region);
  out->pois = MergePois(x.pois, y.pois);
  return true;
}

Movd OverlapBruteForce(const Movd& a, const Movd& b, BoundaryMode mode) {
  Movd result;
  for (const Ovr& x : a.ovrs) {
    for (const Ovr& y : b.ovrs) {
      if (!x.mbr.Intersects(y.mbr)) continue;
      Ovr out;
      if (IntersectOvrPair(x, y, mode, &out)) {
        result.ovrs.push_back(std::move(out));
      }
    }
  }
  return result;
}

}  // namespace movd
