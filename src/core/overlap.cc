#include "core/overlap.h"

#include <algorithm>
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

// The partner index over operand b: a uniform grid over its OVRs' MBRs in
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
  // meets the closed rectangle f. Probes every grid cell f meets and
  // reports p only from the cell holding (max(p.min_x, f.min_x),
  // max(p.min_y, f.min_y)), a point of both MBRs, so nothing repeats.
  template <typename Visit>
  void ForEachMeeting(const Rect& f, Visit&& visit) const {
    ForEachCell(f, [&](uint32_t col, uint32_t row) {
      const size_t cell = size_t{row} * x_.count() + col;
      for (uint32_t k = offsets_[cell]; k < offsets_[cell + 1]; ++k) {
        const Rect& p = movd_->ovrs[ids_[k]].mbr;
        if (p.Intersects(f) && x_.Cell(std::max(p.min_x, f.min_x)) == col &&
            y_.Cell(std::max(p.min_y, f.min_y)) == row) {
          visit(ids_[k]);
        }
      }
    });
  }

 private:
  // Grid cells an MBR meets (0 for an inverted one).
  uint64_t CellsMet(const Rect& r) const {
    const uint32_t x0 = x_.Cell(r.min_x), x1 = x_.Cell(r.max_x);
    const uint32_t y0 = y_.Cell(r.min_y), y1 = y_.Cell(r.max_y);
    if (x1 < x0 || y1 < y0) return 0;
    return uint64_t{x1 - x0 + 1} * (y1 - y0 + 1);
  }

  // Calls fn(col, row) for every grid cell `r` meets.
  template <typename Fn>
  void ForEachCell(const Rect& r, Fn&& fn) const {
    const uint32_t x0 = x_.Cell(r.min_x), x1 = x_.Cell(r.max_x);
    const uint32_t y1 = y_.Cell(r.max_y);
    for (uint32_t y = y_.Cell(r.min_y); y <= y1; ++y) {
      for (uint32_t x = x0; x <= x1; ++x) fn(x, y);
    }
  }

  // Calls fn(cell) for every cell OVR i's MBR meets.
  template <typename Fn>
  void ForEachCellOf(uint32_t i, Fn&& fn) const {
    ForEachCell(movd_->ovrs[i].mbr, [&](uint32_t x, uint32_t y) {
      fn(size_t{y} * x_.count() + x);
    });
  }

  const Movd* movd_ = nullptr;
  GridAxis x_;
  GridAxis y_;
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> ids_;
};

// Clips the pair (x of a, y of b) under `mode` in the operand order the
// pair fixes on its own: y first when y's MBR tops out no higher than x's
// (Region::Intersect clips its first operand by the second, so the order
// decides the output bits).
bool ClipPair(const Ovr& x, const Ovr& y, BoundaryMode mode, Ovr* out) {
  return y.mbr.max_y <= x.mbr.max_y ? IntersectOvrPair(y, x, mode, out)
                                    : IntersectOvrPair(x, y, mode, out);
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
  const size_t na = a.ovrs.size();
  const size_t n = na + b.ovrs.size();
  span.Counter("input_ovrs", static_cast<int64_t>(n));
  MOVD_CHECK_MSG(n <= std::numeric_limits<uint32_t>::max() / 8,
                 "overlap operands have too many OVRs for 32-bit indices");
  if (TokenExpired(cancel)) return Movd();

  // The set-up of the step, under its own span.
  PartnerIndex index = [&] {
    TRACE_SPAN("partner_index");
    return PartnerIndex(b);
  }();
  span.Counter("partner_index_entries",
               static_cast<int64_t>(index.entries()));
  span.Counter("partner_index_cells", static_cast<int64_t>(index.cells()));

  // One pass over fixed chunks of a's OVRs, the finders, in index order.
  // Finder i takes its partners, b's OVRs whose closed MBRs meet its own,
  // in ascending j, and each pair is pruned by the bound or clipped in the
  // pair's own operand order (ClipPair). Each chunk writes only its own
  // slot and the slots are concatenated in chunk order (DESIGN.md §6), so
  // the output is in (i, j) order and it and every counter are the same
  // for every thread count. The token is polled once per chunk and every
  // kPairsPerPoll pairs; a chunk that sees it fired stops, leaving a
  // truncated result.
  struct Chunk {
    std::vector<Ovr> ovrs;
    size_t candidates = 0;  // pairs found
    size_t clipped = 0;     // pairs handed to the boundary handler
    size_t pruned = 0;      // pairs the bound skipped
    size_t pieces = 0;      // region pieces over `ovrs`
  };
  std::vector<Chunk> chunks((na + kFinderChunk - 1) / kFinderChunk);
  const int used_threads = static_cast<int>(std::clamp<size_t>(
      chunks.size(), 1, static_cast<size_t>(ResolveThreads(threads))));
  span.Counter("threads", used_threads);
  ParallelFor(used_threads, chunks.size(), [&](size_t c) {
    if (TokenExpired(cancel)) return;
    Chunk& chunk = chunks[c];
    std::vector<uint32_t> partners;
    size_t until_poll = kPairsPerPoll;
    const size_t end = std::min(na, (c + 1) * kFinderChunk);
    for (size_t i = c * kFinderChunk; i < end; ++i) {
      const Ovr& f = a.ovrs[i];
      partners.clear();
      index.ForEachMeeting(f.mbr, [&](uint32_t j) { partners.push_back(j); });
      std::sort(partners.begin(), partners.end());
      chunk.candidates += partners.size();
      for (const uint32_t j : partners) {
        if (--until_poll == 0) {
          if (TokenExpired(cancel)) return;
          until_poll = kPairsPerPoll;
        }
        const Ovr& p = b.ovrs[j];
        if (bound != nullptr && bound->Prunes(f.pois, p.pois)) {
          ++chunk.pruned;
          continue;
        }
        ++chunk.clipped;
        Ovr out;
        if (ClipPair(f, p, mode, &out)) {
          chunk.pieces += out.region.pieces().size();
          chunk.ovrs.push_back(std::move(out));
        }
      }
    }
  });

  OverlapStats step;
  size_t pieces = 0;
  for (const Chunk& chunk : chunks) {
    step.candidate_pairs += chunk.candidates;
    if (mode == BoundaryMode::kRealRegion) {
      step.region_intersections += chunk.clipped;
    }
    step.pruned_pairs += chunk.pruned;
    step.output_ovrs += chunk.ovrs.size();
    pieces += chunk.pieces;
  }
  // Free the index, then move each chunk's OVRs out and release its
  // buffer, so peak memory stays close to the result's own size.
  index = PartnerIndex();
  Movd result;
  result.ovrs.reserve(step.output_ovrs);
  for (Chunk& chunk : chunks) {
    std::move(chunk.ovrs.begin(), chunk.ovrs.end(),
              std::back_inserter(result.ovrs));
    std::vector<Ovr>().swap(chunk.ovrs);
  }
  if (stats != nullptr) {
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
      // The operand rule, spelled out rather than shared with Overlap, so
      // that tests checking Overlap against this also check its operands.
      Ovr out;
      if (y.mbr.max_y <= x.mbr.max_y ? IntersectOvrPair(y, x, mode, &out)
                                     : IntersectOvrPair(x, y, mode, &out)) {
        result.ovrs.push_back(std::move(out));
      }
    }
  }
  return result;
}

}  // namespace movd
