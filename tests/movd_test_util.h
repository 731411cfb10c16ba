// Bit-level MOVD comparison shared by the overlap determinism tests, and
// the unpruned staged pipeline that SolveMolq's answers are checked against.

#ifndef MOVD_TESTS_MOVD_TEST_UTIL_H_
#define MOVD_TESTS_MOVD_TEST_UTIL_H_

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/molq.h"
#include "core/optimizer.h"
#include "core/overlap.h"
#include "core/pruned_overlap.h"
#include "model/movd_model.h"
#include "voronoi/site_grid.h"
#include "voronoi/voronoi.h"

namespace movd {

inline uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

inline bool SameRectBits(const Rect& a, const Rect& b) {
  return Bits(a.min_x) == Bits(b.min_x) && Bits(a.min_y) == Bits(b.min_y) &&
         Bits(a.max_x) == Bits(b.max_x) && Bits(a.max_y) == Bits(b.max_y);
}

// True when both MOVDs hold the same OVRs in the same order, with every
// vertex and MBR coordinate equal bit for bit and equal poi lists.
inline ::testing::AssertionResult BitIdentical(const Movd& want,
                                               const Movd& got) {
  if (want.ovrs.size() != got.ovrs.size()) {
    return ::testing::AssertionFailure()
           << "OVR count " << got.ovrs.size() << " != " << want.ovrs.size();
  }
  for (size_t i = 0; i < want.ovrs.size(); ++i) {
    const Ovr& w = want.ovrs[i];
    const Ovr& g = got.ovrs[i];
    if (!SameRectBits(w.mbr, g.mbr)) {
      return ::testing::AssertionFailure() << "MBR differs at OVR " << i;
    }
    if (!(w.pois == g.pois)) {
      return ::testing::AssertionFailure() << "pois differ at OVR " << i;
    }
    const auto& wp = w.region.pieces();
    const auto& gp = g.region.pieces();
    if (wp.size() != gp.size()) {
      return ::testing::AssertionFailure() << "piece count at OVR " << i;
    }
    for (size_t p = 0; p < wp.size(); ++p) {
      const auto& wv = wp[p].vertices();
      const auto& gv = gp[p].vertices();
      if (wv.size() != gv.size()) {
        return ::testing::AssertionFailure()
               << "vertex count at OVR " << i << " piece " << p;
      }
      for (size_t v = 0; v < wv.size(); ++v) {
        if (Bits(wv[v].x) != Bits(gv[v].x) ||
            Bits(wv[v].y) != Bits(gv[v].y)) {
          return ::testing::AssertionFailure()
                 << "vertex bits at OVR " << i << " piece " << p
                 << " vertex " << v;
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

inline void ExpectSameStats(const OverlapStats& want,
                            const OverlapStats& got) {
  EXPECT_EQ(got.candidate_pairs, want.candidate_pairs);
  EXPECT_EQ(got.pruned_pairs, want.pruned_pairs);
  EXPECT_EQ(got.region_intersections, want.region_intersections);
  EXPECT_EQ(got.output_ovrs, want.output_ovrs);
}

// The basic MOVDs SolveMolq builds for `options`, one set at a time.
inline std::vector<Movd> BuildAllBasic(const MolqQuery& query,
                                       const Rect& space,
                                       const MolqOptions& options) {
  std::vector<Movd> basic;
  for (size_t s = 0; s < query.sets.size(); ++s) {
    basic.push_back(BuildBasicMovd(query, static_cast<int32_t>(s), space,
                                   options.exec.weighted_grid_resolution));
  }
  return basic;
}

// The SiteGrid BuildMolqOverlay(prune = true) builds for an ordinary set:
// over its object locations in input order.
inline SiteGrid SetGrid(const MolqQuery& query, size_t set) {
  std::vector<Point> sites;
  for (const SpatialObject& obj : query.sets[set].objects) {
    sites.push_back(obj.location);
  }
  return SiteGrid(sites);
}

// The combination bound BuildMolqOverlay(prune = true) builds: over each
// ordinary set's SiteGrid, null for a weighted set.
inline CombinationBound PipelineBound(const MolqQuery& query,
                                      const Rect& space, double epsilon,
                                      int threads = 1) {
  std::vector<std::optional<SiteGrid>> grids(query.sets.size());
  std::vector<const SiteGrid*> grid_of(query.sets.size(), nullptr);
  for (size_t s = 0; s < query.sets.size(); ++s) {
    if (!OrdinaryDiagramSuffices(query, static_cast<int32_t>(s))) continue;
    grids[s].emplace(SetGrid(query, s));
    grid_of[s] = &*grids[s];
  }
  return CombinationBound(query, space, epsilon, grid_of, threads);
}

// The unpruned pipeline through its public stages: BuildBasicMovd ->
// OverlapAll (no bound) -> OptimizeMovd, with SolveMolq's options.
inline OptimizerResult SolveStagedUnpruned(const MolqQuery& query,
                                           const Rect& space,
                                           const MolqOptions& options) {
  const BoundaryMode mode = options.algorithm == MolqAlgorithm::kMbrb
                                ? BoundaryMode::kMbr
                                : BoundaryMode::kRealRegion;
  const Movd movd = OverlapAll(BuildAllBasic(query, space, options), mode,
                               nullptr, nullptr, options.exec.threads);
  return OptimizeMovd(query, movd, options);
}

// SolveMolq's answer equals the unpruned reference bit for bit.
inline void ExpectSameAnswer(const OptimizerResult& want,
                             const MolqResult& got) {
  EXPECT_EQ(got.status, StatusCode::kOk);
  EXPECT_EQ(Bits(got.cost), Bits(want.cost));
  EXPECT_EQ(Bits(got.location.x), Bits(want.location.x));
  EXPECT_EQ(Bits(got.location.y), Bits(want.location.y));
  EXPECT_EQ(got.group, want.group);
}

}  // namespace movd

#endif  // MOVD_TESTS_MOVD_TEST_UTIL_H_
