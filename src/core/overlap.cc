#include "core/overlap.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "core/pruned_overlap.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace movd {
namespace {

// Finders per unit of parallel work. Fixed, so the chunking and with it
// the output order never depend on the thread count.
constexpr size_t kFinderChunk = 64;

// Pairs a chunk handles between two polls of the cancel token, so one
// finder with thousands of partners cannot outrun a deadline.
constexpr size_t kPairsPerPoll = 256;

// Partner-index cells are this many times the mean MBR's size along each
// axis, so an MBR meets about (1 + 1/1.4)^2 ≈ 3 cells on average.
constexpr double kCellScale = 1.4;

// The extent of the finite values passed to Add().
struct Extent {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();

  void Add(double v) {
    if (!std::isfinite(v)) return;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
};

// One axis of a uniform grid over an extent: Cell(v) is monotone
// non-decreasing in v and always in [0, count()). An empty, overflowing or
// otherwise degenerate extent gives a single cell, and a NaN maps to the
// first, so no input can produce a NaN or out-of-range index.
class GridAxis {
 public:
  GridAxis() = default;
  GridAxis(const Extent& e, double count)
      : lo_(e.lo), scale_(count / (e.hi - e.lo)) {
    if (count >= 2.0 && e.hi - e.lo > 0.0 && std::isfinite(e.hi - e.lo) &&
        std::isfinite(scale_)) {
      count_ = static_cast<uint32_t>(count);
    } else {
      scale_ = 0.0;
    }
  }

  uint32_t count() const { return count_; }

  uint32_t Cell(double v) const {
    const double t = (v - lo_) * scale_;
    if (!(t >= 0.0)) return 0;
    if (t >= count_) return count_ - 1;
    return static_cast<uint32_t>(t);
  }

 private:
  double lo_ = 0.0;
  double scale_ = 0.0;
  uint32_t count_ = 1;
};

// The partner index of one operand: a uniform grid over its OVRs' MBRs in
// which every cell lists the OVRs whose MBR meets it (offsets + ids). Cells
// are shaped like the mean MBR, at most one per OVR, and the grid is
// coarsened until it holds at most 4 ids per OVR plus one per cell, so its
// size is linear in the operand whatever the MBRs look like.
class PartnerIndex {
 public:
  PartnerIndex() = default;

  explicit PartnerIndex(const Movd& m) : movd_(&m) {
    const size_t n = m.ovrs.size();
    Extent ex, ey;
    double sum_w = 0.0, sum_h = 0.0;
    for (const Ovr& ovr : m.ovrs) {
      const Rect& r = ovr.mbr;
      ex.Add(r.min_x);
      ex.Add(r.max_x);
      ey.Add(r.min_y);
      ey.Add(r.max_y);
      if (r.max_x - r.min_x >= 0.0 && r.max_y - r.min_y >= 0.0) {
        sum_w += r.max_x - r.min_x;
        sum_h += r.max_y - r.min_y;
      }
    }
    // Cells along an axis: extent / cell size, in [1, n]; NaN gives 1.
    const double limit = static_cast<double>(n);
    const auto along = [limit](const Extent& e, double mean) {
      const double count = (e.hi - e.lo) / (kCellScale * mean);
      return count >= 1.0 ? std::min(count, limit) : 1.0;
    };
    double cols = along(ex, sum_w / limit);
    double rows = along(ey, sum_h / limit);
    if (cols * rows > limit) {
      const double shrink = std::sqrt(limit / (cols * rows));
      cols = std::max(1.0, cols * shrink);
      rows = std::max(1.0, rows * shrink);
    }
    // Count the ids per cell, giving up on a grid as soon as it holds more
    // than the bound; then halve its longer side.
    for (;;) {
      x_ = GridAxis(ex, cols);
      y_ = GridAxis(ey, rows);
      const uint64_t cells = uint64_t{x_.count()} * y_.count();
      const uint64_t bound = 4 * uint64_t{n} + cells;
      offsets_.assign(cells + 1, 0);
      uint64_t ids = 0;
      for (uint32_t i = 0; i < n && ids <= bound; ++i) {
        ids += CellsMet(m.ovrs[i].mbr);
        if (ids <= bound) {
          ForEachCellOf(i, [&](size_t cell) { ++offsets_[cell]; });
        }
      }
      if (ids <= bound) break;
      if (x_.count() >= y_.count()) {
        cols = 0.5 * x_.count();
      } else {
        rows = 0.5 * y_.count();
      }
    }
    // offsets_[c] counts cell c; make it the end of c, then fill each cell
    // back to front so that it ends as the beginning of c.
    for (size_t c = 1; c < offsets_.size(); ++c) offsets_[c] += offsets_[c - 1];
    ids_.resize(offsets_.back());
    for (uint32_t i = 0; i < n; ++i) {
      ForEachCellOf(i, [&](size_t cell) { ids_[--offsets_[cell]] = i; });
    }
  }

  size_t entries() const { return ids_.size(); }
  size_t cells() const { return offsets_.size() - 1; }

  // Calls visit(p) exactly once for every indexed OVR p whose closed MBR
  // meets the closed segment y = f.max_y, f.min_x <= x <= f.max_x (f's top
  // edge). Probes the one grid row holding f.max_y and reports p only from
  // the column holding max(p.min_x, f.min_x), so nothing repeats.
  template <typename Visit>
  void ForEachCrossingTop(const Rect& f, Visit&& visit) const {
    const size_t row = size_t{y_.Cell(f.max_y)} * x_.count();
    const uint32_t col_end = x_.Cell(f.max_x);
    for (uint32_t col = x_.Cell(f.min_x); col <= col_end; ++col) {
      const size_t cell = row + col;
      for (uint32_t k = offsets_[cell]; k < offsets_[cell + 1]; ++k) {
        const Rect& p = movd_->ovrs[ids_[k]].mbr;
        if (p.min_x <= f.max_x && p.max_x >= f.min_x &&
            p.min_y <= f.max_y && p.max_y >= f.max_y &&
            x_.Cell(std::max(p.min_x, f.min_x)) == col) {
          visit(ids_[k]);
        }
      }
    }
  }

 private:
  // Grid cells an MBR meets (0 for an inverted one).
  uint64_t CellsMet(const Rect& r) const {
    const uint32_t x0 = x_.Cell(r.min_x), x1 = x_.Cell(r.max_x);
    const uint32_t y0 = y_.Cell(r.min_y), y1 = y_.Cell(r.max_y);
    if (x1 < x0 || y1 < y0) return 0;
    return uint64_t{x1 - x0 + 1} * (y1 - y0 + 1);
  }

  // Calls fn(cell) for every cell OVR i's MBR meets.
  template <typename Fn>
  void ForEachCellOf(uint32_t i, Fn&& fn) const {
    const Rect& r = movd_->ovrs[i].mbr;
    const uint32_t x0 = x_.Cell(r.min_x), x1 = x_.Cell(r.max_x);
    const uint32_t y1 = y_.Cell(r.max_y);
    for (uint32_t y = y_.Cell(r.min_y); y <= y1; ++y) {
      for (uint32_t x = x0; x <= x1; ++x) fn(size_t{y} * x_.count() + x);
    }
  }

  const Movd* movd_ = nullptr;
  GridAxis x_;
  GridAxis y_;
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> ids_;
};

// An unsigned key that orders tops descending, with -0.0 and +0.0 equal.
// Every double (NaN too) gets one, so sorting by (key, g) is a total order.
uint64_t DescendingKey(double y) {
  // y + 0.0 turns -0.0 into +0.0 and leaves every other value as it is.
  const uint64_t bits = std::bit_cast<uint64_t>(y + 0.0);
  const uint64_t ascending = bits >> 63 ? ~bits : bits | (uint64_t{1} << 63);
  return ~ascending;
}

// A start event of the top-down sweep: OVR g (a's i is g = i, b's j is
// g = |a| + j) starts at its top edge.
struct StartKey {
  uint64_t key;  // DescendingKey(mbr.max_y)
  uint32_t g;
};

// Start order of the top-down sweep (Algorithm 2): descending top edge,
// ties by g, i.e. a's OVRs before b's, each in index order. End events
// need no order of their own: at equal y they come after the starts, so
// an OVR p is still active when f starts iff p.min_y <= f.max_y.
std::vector<StartKey> StartOrder(const Movd& a, const Movd& b) {
  const size_t na = a.ovrs.size();
  std::vector<StartKey> starts(na + b.ovrs.size());
  for (uint32_t g = 0; g < starts.size(); ++g) {
    starts[g] = {
        DescendingKey((g < na ? a.ovrs[g] : b.ovrs[g - na]).mbr.max_y), g};
  }
  std::sort(starts.begin(), starts.end(),
            [](const StartKey& x, const StartKey& y) {
              if (x.key != y.key) return x.key < y.key;
              return x.g < y.g;
            });
  return starts;
}

// The set-up of one step: the start events in start order, and a partner
// index per operand, built side by side on up to three threads.
struct SweepIndex {
  SweepIndex() = default;
  SweepIndex(const Movd& a, const Movd& b, int threads) {
    ParallelFor(threads, 3, [&](size_t task) {
      if (task == 0) {
        starts = StartOrder(a, b);
      } else if (task == 1) {
        index_a = PartnerIndex(a);
      } else {
        index_b = PartnerIndex(b);
      }
    });
  }

  std::vector<StartKey> starts;
  PartnerIndex index_a;
  PartnerIndex index_b;
};

// One partner of a finder, with its keys in the sweep's status order.
struct Partner {
  double min_x;
  double max_y;
  uint32_t index;  // OVR index within the other operand
};

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
  const size_t na = a.ovrs.size();
  const size_t n = na + b.ovrs.size();
  span.Counter("input_ovrs", static_cast<int64_t>(n));
  MOVD_CHECK_MSG(n <= std::numeric_limits<uint32_t>::max() / 8,
                 "overlap operands have too many OVRs for 32-bit indices");
  if (TokenExpired(cancel)) return Movd();

  // The set-up of the step, under its own span.
  SweepIndex sweep = [&] {
    TRACE_SPAN("partner_index");
    return SweepIndex(a, b, threads);
  }();
  span.Counter("partner_index_entries",
               static_cast<int64_t>(sweep.index_a.entries() +
                                    sweep.index_b.entries()));
  span.Counter("partner_index_cells",
               static_cast<int64_t>(sweep.index_a.cells() +
                                    sweep.index_b.cells()));

  // One pass over fixed chunks of consecutive finders. Finder f (the OVR
  // whose start event is the k-th) pairs with every OVR p of the other
  // operand that started before it, is still active, and overlaps f in x:
  // exactly what the paper's status search returns at f's start event.
  // Its partners are visited in the status order, (p.min_x, start order),
  // and each pair is clipped finder-first (Region::Intersect clips its
  // first operand by the second, so operand order decides the output
  // bits). A pair the bound prunes is skipped before its clip. Each chunk
  // writes only its own slot and the slots are concatenated in chunk
  // order (DESIGN.md §6), so the output and every counter are the same for
  // every thread count. The token is polled once per chunk and every
  // kPairsPerPoll pairs; a chunk that sees it fired stops, leaving a
  // truncated result.
  struct Chunk {
    std::vector<Ovr> ovrs;
    size_t events = 0;      // start + end event per finder searched
    size_t candidates = 0;  // pairs found
    size_t clipped = 0;     // pairs handed to the boundary handler
    size_t pruned = 0;      // pairs the bound skipped
    size_t pieces = 0;      // region pieces over `ovrs`
  };
  std::vector<Chunk> chunks((n + kFinderChunk - 1) / kFinderChunk);
  const int used_threads = static_cast<int>(std::clamp<size_t>(
      chunks.size(), 1, static_cast<size_t>(ResolveThreads(threads))));
  span.Counter("threads", used_threads);
  ParallelFor(used_threads, chunks.size(), [&](size_t c) {
    if (TokenExpired(cancel)) return;
    Chunk& chunk = chunks[c];
    std::vector<Partner> partners;
    size_t until_poll = kPairsPerPoll;
    const size_t end = std::min(n, (c + 1) * kFinderChunk);
    for (size_t k = c * kFinderChunk; k < end; ++k) {
      const uint32_t g = sweep.starts[k].g;
      const bool from_a = g < na;
      const Ovr& f = from_a ? a.ovrs[g] : b.ovrs[g - na];
      const Movd& other = from_a ? b : a;
      const PartnerIndex& index = from_a ? sweep.index_b : sweep.index_a;
      // p crosses f's top edge, so it started before f unless it ties on
      // the top and comes later in g, i.e. is b's while f is a's.
      partners.clear();
      index.ForEachCrossingTop(f.mbr, [&](uint32_t p) {
        const Rect& mbr = other.ovrs[p].mbr;
        if (!from_a || mbr.max_y != f.mbr.max_y) {
          partners.push_back({mbr.min_x, mbr.max_y, p});
        }
      });
      std::sort(partners.begin(), partners.end(),
                [](const Partner& x, const Partner& y) {
                  if (x.min_x != y.min_x) return x.min_x < y.min_x;
                  if (x.max_y != y.max_y) return x.max_y > y.max_y;
                  return x.index < y.index;
                });
      chunk.events += 2;
      chunk.candidates += partners.size();
      for (const Partner& partner : partners) {
        if (--until_poll == 0) {
          if (TokenExpired(cancel)) return;
          until_poll = kPairsPerPoll;
        }
        const Ovr& p = other.ovrs[partner.index];
        if (bound != nullptr && (from_a ? bound->Prunes(f.pois, p.pois)
                                        : bound->Prunes(p.pois, f.pois))) {
          ++chunk.pruned;
          continue;
        }
        ++chunk.clipped;
        Ovr out;
        if (IntersectOvrPair(f, p, mode, &out)) {
          chunk.pieces += out.region.pieces().size();
          chunk.ovrs.push_back(std::move(out));
        }
      }
    }
  });

  OverlapStats step;
  size_t pieces = 0;
  for (const Chunk& chunk : chunks) {
    step.events += chunk.events;
    step.candidate_pairs += chunk.candidates;
    if (mode == BoundaryMode::kRealRegion) {
      step.region_intersections += chunk.clipped;
    }
    step.pruned_pairs += chunk.pruned;
    step.output_ovrs += chunk.ovrs.size();
    pieces += chunk.pieces;
  }
  // Free the set-up's arrays, then move each chunk's OVRs out and release
  // its buffer, so peak memory stays close to the result's own size.
  sweep = SweepIndex();
  Movd result;
  result.ovrs.reserve(step.output_ovrs);
  for (Chunk& chunk : chunks) {
    std::move(chunk.ovrs.begin(), chunk.ovrs.end(),
              std::back_inserter(result.ovrs));
    std::vector<Ovr>().swap(chunk.ovrs);
  }
  if (stats != nullptr) {
    stats->events += step.events;
    stats->candidate_pairs += step.candidate_pairs;
    stats->pruned_pairs += step.pruned_pairs;
    stats->region_intersections += step.region_intersections;
    stats->output_ovrs += step.output_ovrs;
  }
  span.Counter("candidate_pairs",
               static_cast<int64_t>(step.candidate_pairs));
  span.Counter("pruned_pairs", static_cast<int64_t>(step.pruned_pairs));
  span.Counter("output_ovrs", static_cast<int64_t>(step.output_ovrs));
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
