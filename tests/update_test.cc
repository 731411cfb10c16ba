// Tests of the live-update machinery (DESIGN.md §14): the ordinary-layer
// mirror whose Materialize() must stay byte-identical to a
// from-scratch BuildBasicMovd across arbitrary mutation scripts, the
// overlay patcher vs a full refold, and the patched-vs-rebuilt audit
// validator that gates all of it in the serve stack.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit_update.h"
#include "core/molq.h"
#include "core/overlap.h"
#include "core/update.h"
#include "model/movd_model.h"
#include "model/update_model.h"
#include "util/rng.h"

namespace movd {
namespace {

constexpr Rect kWorld(0, 0, 100, 100);

/// A query whose layers all take the exact ordinary-Voronoi route
/// (uniform weights), which is what the incremental patcher mirrors.
MolqQuery OrdinaryQuery(const std::vector<size_t>& sizes, uint64_t seed) {
  Rng rng(seed);
  MolqQuery query;
  for (size_t s = 0; s < sizes.size(); ++s) {
    ObjectSet set;
    set.name = std::string("layer") += std::to_string(s);
    for (size_t i = 0; i < sizes[s]; ++i) {
      SpatialObject obj;
      obj.location = {rng.Uniform(5, 95), rng.Uniform(5, 95)};
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  return query;
}

bool SamePointBits(const Point& a, const Point& b) {
  return std::memcmp(&a, &b, sizeof(Point)) == 0;
}

/// Applies `mut` to `query` the way the serve engine does: insert appends
/// a default-weight object, delete removes the first object whose
/// location is bit-identical.
void ApplyToQuery(MolqQuery* query, const SiteMutation& mut) {
  ObjectSet& set = query->sets.at(mut.layer);
  if (mut.kind == MutationKind::kInsert) {
    SpatialObject obj;
    obj.location = mut.location;
    set.objects.push_back(obj);
    return;
  }
  for (size_t i = 0; i < set.objects.size(); ++i) {
    if (SamePointBits(set.objects[i].location, mut.location)) {
      set.objects.erase(set.objects.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
  FAIL() << "ApplyToQuery: deleting an absent object";
}

/// True when the basic MOVD's OVRs name strictly ascending objects: the
/// object order every basic is built in.
::testing::AssertionResult InObjectOrder(const Movd& basic) {
  for (size_t k = 0; k < basic.ovrs.size(); ++k) {
    if (basic.ovrs[k].pois.size() != 1) {
      return ::testing::AssertionFailure() << "OVR " << k << " is no cell";
    }
    if (k > 0 && basic.ovrs[k - 1].pois[0].object >=
                     basic.ovrs[k].pois[0].object) {
      return ::testing::AssertionFailure()
             << "OVR " << k << " (object " << basic.ovrs[k].pois[0].object
             << ") after object " << basic.ovrs[k - 1].pois[0].object;
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// OrdinaryLayerState: patched basics must be byte-identical to rebuilds

TEST(OrdinaryLayerStateTest, MaterializeMatchesFullBuildAcrossMutations) {
  // 24 seeds x 12-step random insert/delete scripts: after every step the
  // mirror's Materialize() must reproduce BuildBasicMovd byte for byte —
  // the live-update contract the serve stack's audit gate enforces.
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    MolqQuery query = OrdinaryQuery({10 + seed % 7}, seed);
    ASSERT_TRUE(OrdinaryDiagramSuffices(query, 0));
    OrdinaryLayerState state(query, 0, kWorld);
    Rng rng(seed * 97 + 13);
    for (int step = 0; step < 12; ++step) {
      SiteMutation mut;
      mut.layer = 0;
      const size_t n = query.sets[0].objects.size();
      if (n > 4 && rng.NextBelow(3) == 0) {
        mut.kind = MutationKind::kDelete;
        mut.location = query.sets[0].objects[rng.NextBelow(n)].location;
      } else {
        mut.kind = MutationKind::kInsert;
        mut.location = {rng.Uniform(5, 95), rng.Uniform(5, 95)};
      }
      LayerPatchStats stats;
      ASSERT_TRUE(state.Apply(mut, &stats)) << "seed " << seed;
      ApplyToQuery(&query, mut);
      ASSERT_EQ(state.num_objects(), query.sets[0].objects.size());
      // The patch touches only the mutation's Delaunay neighbourhood,
      // never the whole layer.
      EXPECT_LE(stats.recomputed_cells, stats.total_cells);

      const Movd patched = state.Materialize();
      const Movd rebuilt = BuildBasicMovd(query, 0, kWorld, 128);
      EXPECT_TRUE(MovdBitIdentical(patched, rebuilt))
          << "seed " << seed << " step " << step << ": "
          << AuditPatchedMovd(patched, rebuilt).Summary();
    }
  }
}

TEST(OrdinaryLayerStateTest, BasicsComeInObjectOrder) {
  // Random sites, so LessXY site order is not object order, with a few
  // objects on top of earlier ones.
  MolqQuery query = OrdinaryQuery({40}, 7);
  std::vector<SpatialObject>& objects = query.sets[0].objects;
  for (const size_t i : {5, 17, 30}) {
    objects[i].location = objects[i - 3].location;
  }
  EXPECT_TRUE(InObjectOrder(BuildBasicMovd(query, 0, kWorld, 128)));

  // The mirror after every step of an INSERT/DELETE script, including an
  // insert at a live site and a delete of a co-located site's first object.
  OrdinaryLayerState state(query, 0, kWorld);
  EXPECT_TRUE(InObjectOrder(state.Materialize()));
  Rng rng(71);
  for (int step = 0; step < 16; ++step) {
    SiteMutation mut;
    mut.layer = 0;
    const size_t n = query.sets[0].objects.size();
    if (step % 2 == 1) {
      // Step 5 deletes object 0, which step 4 gave a co-located twin.
      mut.kind = MutationKind::kDelete;
      mut.location =
          query.sets[0].objects[step == 5 ? 0 : rng.NextBelow(n)].location;
    } else {
      mut.kind = MutationKind::kInsert;
      mut.location = step == 4 ? query.sets[0].objects[0].location
                               : Point{rng.Uniform(5, 95), rng.Uniform(5, 95)};
    }
    LayerPatchStats stats;
    ASSERT_TRUE(state.Apply(mut, &stats)) << "step " << step;
    ApplyToQuery(&query, mut);
    EXPECT_TRUE(InObjectOrder(state.Materialize())) << "step " << step;
  }

  // The weighted route too.
  MolqQuery weighted = OrdinaryQuery({30}, 8);
  for (size_t i = 0; i < weighted.sets[0].objects.size(); ++i) {
    weighted.sets[0].objects[i].object_weight = 1.0 + 0.1 * (i % 5);
  }
  ASSERT_FALSE(OrdinaryDiagramSuffices(weighted, 0));
  EXPECT_TRUE(InObjectOrder(BuildBasicMovd(weighted, 0, kWorld, 64)));
}

TEST(OrdinaryLayerStateTest, HandlesDuplicateLocations) {
  MolqQuery query = OrdinaryQuery({12}, 42);
  OrdinaryLayerState state(query, 0, kWorld);
  const Point dup = query.sets[0].objects[3].location;

  // Inserting an object at an existing site changes no cells.
  SiteMutation insert{MutationKind::kInsert, 0, dup};
  LayerPatchStats stats;
  ASSERT_TRUE(state.Apply(insert, &stats));
  EXPECT_EQ(stats.recomputed_cells, 0u);
  ApplyToQuery(&query, insert);
  EXPECT_TRUE(
      MovdBitIdentical(state.Materialize(), BuildBasicMovd(query, 0, kWorld,
                                                           128)));

  // Deleting one of the two co-located objects keeps the site alive (the
  // surviving object takes it over).
  SiteMutation del{MutationKind::kDelete, 0, dup};
  ASSERT_TRUE(state.Apply(del, &stats));
  EXPECT_EQ(stats.recomputed_cells, 0u);
  ApplyToQuery(&query, del);
  EXPECT_TRUE(
      MovdBitIdentical(state.Materialize(), BuildBasicMovd(query, 0, kWorld,
                                                           128)));

  // Deleting the last object at the location removes the site.
  ASSERT_TRUE(state.Apply(del, &stats));
  EXPECT_GT(stats.recomputed_cells, 0u);
  ApplyToQuery(&query, del);
  EXPECT_TRUE(
      MovdBitIdentical(state.Materialize(), BuildBasicMovd(query, 0, kWorld,
                                                           128)));
}

TEST(OrdinaryLayerStateTest, MatchesFullBuildFarFromUnitScale) {
  // The predicates' degree-4 terms overflow at 2^250 and underflow at
  // 2^-250 unless the triangulation rescales; the mirror's triangulation
  // takes its scale from the world, so inserts anywhere in it stay exact.
  for (const int exponent : {250, -250}) {
    const auto scaled = [&](const Point& p) {
      return Point{std::ldexp(p.x, exponent), std::ldexp(p.y, exponent)};
    };
    const Point lo = scaled({kWorld.min_x, kWorld.min_y});
    const Point hi = scaled({kWorld.max_x, kWorld.max_y});
    const Rect world(lo.x, lo.y, hi.x, hi.y);
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      MolqQuery query = OrdinaryQuery({12 + seed % 5}, seed + 100);
      for (SpatialObject& obj : query.sets[0].objects) {
        obj.location = scaled(obj.location);
      }
      OrdinaryLayerState state(query, 0, world);
      ASSERT_TRUE(MovdBitIdentical(state.Materialize(),
                                   BuildBasicMovd(query, 0, world, 128)))
          << "2^" << exponent << " seed " << seed;
      Rng rng(seed * 53 + 5);
      for (int step = 0; step < 12; ++step) {
        SiteMutation mut;
        mut.layer = 0;
        const size_t n = query.sets[0].objects.size();
        if (n > 4 && rng.NextBelow(3) == 0) {
          mut.kind = MutationKind::kDelete;
          mut.location = query.sets[0].objects[rng.NextBelow(n)].location;
        } else {
          mut.kind = MutationKind::kInsert;
          mut.location = scaled({rng.Uniform(5, 95), rng.Uniform(5, 95)});
        }
        LayerPatchStats stats;
        ASSERT_TRUE(state.Apply(mut, &stats))
            << "2^" << exponent << " seed " << seed << " step " << step;
        ApplyToQuery(&query, mut);
        EXPECT_GT(stats.recomputed_cells, 0u);
        const Movd patched = state.Materialize();
        const Movd rebuilt = BuildBasicMovd(query, 0, world, 128);
        EXPECT_TRUE(MovdBitIdentical(patched, rebuilt))
            << "2^" << exponent << " seed " << seed << " step " << step
            << ": " << AuditPatchedMovd(patched, rebuilt).Summary();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// PatchOverlay: patched overlays must be byte-identical to full refolds

class PatchOverlayTest : public ::testing::TestWithParam<BoundaryMode> {};

INSTANTIATE_TEST_SUITE_P(BothModes, PatchOverlayTest,
                         ::testing::Values(BoundaryMode::kRealRegion,
                                           BoundaryMode::kMbr));

TEST_P(PatchOverlayTest, InsertPatchMatchesFullRefold) {
  const BoundaryMode mode = GetParam();
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    MolqQuery query = OrdinaryQuery({9, 8, 7}, seed * 5 + 2);
    std::vector<Movd> basics;
    for (int32_t s = 0; s < 3; ++s) {
      basics.push_back(BuildBasicMovd(query, s, kWorld, 128));
    }
    const Movd old_overlay = OverlapAll(basics, mode);

    Rng rng(seed);
    SiteMutation mut{MutationKind::kInsert,
                     1,
                     {rng.Uniform(10, 90), rng.Uniform(10, 90)}};
    ApplyToQuery(&query, mut);
    const Movd new_basic = BuildBasicMovd(query, 1, kWorld, 128);

    Movd patched;
    OverlayPatchStats stats;
    const auto basic_of = [&](int32_t layer) { return &basics[layer]; };
    ASSERT_TRUE(PatchOverlay(old_overlay, {0, 1, 2}, 1, basics[1], new_basic,
                             basic_of, mode, -1, &patched, &stats));
    const Movd rebuilt = OverlapAll({basics[0], new_basic, basics[2]}, mode);
    EXPECT_TRUE(MovdBitIdentical(patched, rebuilt))
        << "seed " << seed << ": "
        << AuditPatchedMovd(patched, rebuilt).Summary();
    // The patch must actually be incremental: combos away from the insert
    // are retained, not re-derived.
    EXPECT_GT(stats.retained_ovrs, 0u) << "seed " << seed;
  }
}

TEST_P(PatchOverlayTest, DeletePatchMatchesFullRefold) {
  const BoundaryMode mode = GetParam();
  for (uint64_t seed = 31; seed <= 36; ++seed) {
    MolqQuery query = OrdinaryQuery({9, 8, 7}, seed);
    std::vector<Movd> basics;
    for (int32_t s = 0; s < 3; ++s) {
      basics.push_back(BuildBasicMovd(query, s, kWorld, 128));
    }
    const Movd old_overlay = OverlapAll(basics, mode);

    const int32_t victim = static_cast<int32_t>(seed % 8);
    SiteMutation mut{MutationKind::kDelete, 1,
                     query.sets[1].objects[static_cast<size_t>(victim)]
                         .location};
    ApplyToQuery(&query, mut);
    const Movd new_basic = BuildBasicMovd(query, 1, kWorld, 128);

    Movd patched;
    OverlayPatchStats stats;
    const auto basic_of = [&](int32_t layer) { return &basics[layer]; };
    ASSERT_TRUE(PatchOverlay(old_overlay, {0, 1, 2}, 1, basics[1], new_basic,
                             basic_of, mode, victim, &patched, &stats));
    const Movd rebuilt = OverlapAll({basics[0], new_basic, basics[2]}, mode);
    EXPECT_TRUE(MovdBitIdentical(patched, rebuilt))
        << "seed " << seed << ": "
        << AuditPatchedMovd(patched, rebuilt).Summary();
  }
}

TEST(PatchOverlayNoParamTest, MissingPeerBasicRefusesToPatch) {
  MolqQuery query = OrdinaryQuery({8, 8}, 77);
  std::vector<Movd> basics;
  for (int32_t s = 0; s < 2; ++s) {
    basics.push_back(BuildBasicMovd(query, s, kWorld, 128));
  }
  const Movd old_overlay = OverlapAll(basics, BoundaryMode::kRealRegion);
  SiteMutation mut{MutationKind::kInsert, 1, {33.0, 44.0}};
  ApplyToQuery(&query, mut);
  const Movd new_basic = BuildBasicMovd(query, 1, kWorld, 128);
  Movd patched;
  OverlayPatchStats stats;
  // Layer 0's basic is unavailable: the patcher must refuse (the engine
  // then drops the cached overlay) rather than guess.
  const auto no_basic = [](int32_t) -> const Movd* { return nullptr; };
  EXPECT_FALSE(PatchOverlay(old_overlay, {0, 1}, 1, basics[1], new_basic,
                            no_basic, BoundaryMode::kRealRegion, -1, &patched,
                            &stats));
}

// ---------------------------------------------------------------------------
// AuditPatchedMovd

TEST(AuditUpdateTest, CleanOnIdenticalArtifacts) {
  const MolqQuery query = OrdinaryQuery({10, 9}, 5);
  std::vector<Movd> basics;
  for (int32_t s = 0; s < 2; ++s) {
    basics.push_back(BuildBasicMovd(query, s, kWorld, 128));
  }
  const Movd overlay = OverlapAll(basics, BoundaryMode::kRealRegion);
  const AuditReport report = AuditPatchedMovd(overlay, overlay);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.checks(), 0u);
}

TEST(AuditUpdateTest, FlagsCountAndByteMismatches) {
  const MolqQuery query = OrdinaryQuery({10, 9}, 6);
  std::vector<Movd> basics;
  for (int32_t s = 0; s < 2; ++s) {
    basics.push_back(BuildBasicMovd(query, s, kWorld, 128));
  }
  const Movd rebuilt = OverlapAll(basics, BoundaryMode::kRealRegion);

  Movd truncated = rebuilt;
  truncated.ovrs.pop_back();
  const AuditReport count = AuditPatchedMovd(truncated, rebuilt);
  EXPECT_GT(count.CountKind(AuditKind::kPatchedOvrCount), 0u);

  Movd skewed = rebuilt;
  skewed.ovrs[0].mbr.min_x += 1e-9;  // one bit of drift must be caught
  const AuditReport bytes = AuditPatchedMovd(skewed, rebuilt);
  EXPECT_GT(bytes.CountKind(AuditKind::kPatchedOvrMismatch), 0u);

  Movd renumbered = rebuilt;
  renumbered.ovrs[0].pois[0].object += 1;
  const AuditReport pois = AuditPatchedMovd(renumbered, rebuilt);
  EXPECT_GT(pois.CountKind(AuditKind::kPatchedOvrMismatch), 0u);
}

TEST(AuditUpdateTest, NegativeZeroIsNotPositiveZero) {
  // "Bit-identical" means raw double bits: -0.0 and +0.0 are different
  // artifacts even though they compare equal as values.
  Ovr a;
  a.mbr = Rect(0.0, 0.0, 1.0, 1.0);
  a.pois = {{0, 0}};
  Ovr b = a;
  b.mbr.min_x = -0.0;
  EXPECT_TRUE(OvrBitIdentical(a, a));
  EXPECT_FALSE(OvrBitIdentical(a, b));
  EXPECT_TRUE(OvrGeometryBitIdentical(a, a));
  EXPECT_FALSE(OvrGeometryBitIdentical(a, b));
}

}  // namespace
}  // namespace movd
