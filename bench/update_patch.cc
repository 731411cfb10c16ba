// Live-update maintenance (DESIGN.md §14): incremental artifact patching
// vs rebuilding from scratch after every site mutation. Four cases per
// workload size, all replaying the same deterministic mutation script on
// layer 0 of a two-layer ordinary query:
//
//   basic_patch     mirror the layer in an OrdinaryLayerState and Apply()
//                   each mutation (includes the initial mirror build —
//                   subtract nothing, the speedup is reported against the
//                   honest end-to-end loop)
//   basic_rebuild   BuildBasicMovd from scratch after every mutation
//                   (post-mutation queries prematerialised; the rebuilds
//                   fan out across --threads workers)
//   overlay_patch   keep the two-layer overlay current with PatchOverlay
//                   after each mutation
//   overlay_rebuild refold the overlay from the per-update basics with the
//                   engine's fold, OverlapAll in ascending layer order
//                   (basics prematerialised)
//
// The patched artifacts are byte-identical to the rebuilt ones (that is
// the §14 contract, enforced by tests/update_test.cc); this harness gates
// the speed side of the bargain. The recomputed/retained counters are
// deterministic script functions and gate exactly.
// Extra flags: --sizes=200,800  --updates=32.

#include <utility>

#include "bench/bench_common.h"
#include "core/overlap.h"
#include "core/update.h"
#include "util/check.h"

namespace movd::bench {
namespace {

/// One scripted mutation plus the bookkeeping the patchers need: the
/// deleted object's pre-mutation index (PatchOverlay's renumbering input)
/// and the full post-mutation query (the rebuild baselines' input).
struct ScriptStep {
  SiteMutation mut;
  int32_t deleted_object = -1;
  MolqQuery after;
};

/// Builds the deterministic mutation script: alternating inserts and
/// deletes on layer 0, reproducible from the harness seed.
std::vector<ScriptStep> MakeScript(const MolqQuery& base, size_t updates,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<ScriptStep> script;
  MolqQuery query = base;
  for (size_t u = 0; u < updates; ++u) {
    ScriptStep step;
    step.mut.layer = 0;
    ObjectSet& set = query.sets[0];
    if (u % 2 == 0 || set.objects.size() < 2) {
      step.mut.kind = MutationKind::kInsert;
      step.mut.location = {rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
      SpatialObject obj;
      obj.location = step.mut.location;
      obj.type_weight = set.objects.front().type_weight;
      set.objects.push_back(obj);
    } else {
      const size_t pick = rng.NextBelow(set.objects.size());
      step.mut.kind = MutationKind::kDelete;
      step.mut.location = set.objects[pick].location;
      step.deleted_object = static_cast<int32_t>(pick);
      set.objects.erase(set.objects.begin() + static_cast<ptrdiff_t>(pick));
    }
    step.after = query;
    script.push_back(std::move(step));
  }
  return script;
}

}  // namespace

BENCH(update_patch) {
  const auto sizes = ParseSizes(ctx.flags().GetString("sizes", "200,800"));
  const size_t updates =
      static_cast<size_t>(ctx.flags().GetInt("updates", 32));
  const BoundaryMode mode = BoundaryMode::kRealRegion;
  for (const size_t n : sizes) {
    const MolqQuery base = MakeQuery({n, n}, ctx.seed());
    const std::vector<ScriptStep> script =
        MakeScript(base, updates, ctx.seed() + 1);
    const std::string suffix = "/n=" + std::to_string(n);

    // --- basic MOVD maintenance ---------------------------------------
    BenchCase& bp = ctx.Case("basic_patch" + suffix)
                        .Param("n", n)
                        .Param("updates", updates);
    size_t recomputed_cells = 0;
    size_t final_ovrs = 0;
    const Summary& bp_wall = ctx.Measure(bp, [&] {
      OrdinaryLayerState state(base, /*set=*/0, kWorld);
      recomputed_cells = 0;
      for (size_t u = 0; u < updates; ++u) {
        LayerPatchStats stats;
        if (state.Apply(script[u].mut, &stats)) {
          recomputed_cells += stats.recomputed_cells;
        } else {
          // Incremental deletion stalled: restart the mirror, exactly as
          // the serve engine does, and charge every live cell.
          state = OrdinaryLayerState(script[u].after, 0, kWorld);
          recomputed_cells += state.num_objects();
        }
      }
      final_ovrs = state.Materialize().ovrs.size();
      Keep(final_ovrs);
    });
    bp.Metric("recomputed_cells", static_cast<double>(recomputed_cells));
    bp.Metric("final_ovrs", static_cast<double>(final_ovrs));

    BenchCase& br = ctx.Case("basic_rebuild" + suffix)
                        .Param("n", n)
                        .Param("updates", updates);
    const Summary& br_wall = ctx.Measure(br, [&] {
      ParallelFor(ctx.threads(), updates, [&](size_t u) {
        const Movd movd = BuildBasicMovd(script[u].after, 0, kWorld,
                                         /*weighted_grid_resolution=*/128);
        Keep(movd.ovrs.size());
      });
    });
    br.Derived("rebuild_over_patch",
               br_wall.median / std::max(bp_wall.median, 1e-9));

    // --- overlay maintenance ------------------------------------------
    // Layer 1 never mutates; its basic is shared by both overlay cases.
    const Movd b1 = BuildBasicMovd(base, 1, kWorld, 128);
    const auto basic_of = [&](int32_t) { return &b1; };

    BenchCase& op = ctx.Case("overlay_patch" + suffix)
                        .Param("n", n)
                        .Param("updates", updates);
    size_t retained = 0;
    size_t recomputed_ovrs = 0;
    size_t overlay_ovrs = 0;
    const Summary& op_wall = ctx.Measure(op, [&] {
      OrdinaryLayerState state(base, 0, kWorld);
      Movd b0 = state.Materialize();
      Movd overlay = OverlapAll({b0, b1}, mode);
      retained = recomputed_ovrs = 0;
      for (size_t u = 0; u < updates; ++u) {
        LayerPatchStats ls;
        if (!state.Apply(script[u].mut, &ls)) {
          state = OrdinaryLayerState(script[u].after, 0, kWorld);
          Movd fresh = state.Materialize();
          overlay = OverlapAll({fresh, b1}, mode);
          recomputed_ovrs += overlay.ovrs.size();
          b0 = std::move(fresh);
          continue;
        }
        Movd nb0 = state.Materialize();
        Movd next;
        OverlayPatchStats os;
        const bool ok =
            PatchOverlay(overlay, {0, 1}, /*mutated_layer=*/0, b0, nb0,
                         basic_of, mode, script[u].deleted_object, &next,
                         &os);
        MOVD_CHECK(ok);
        retained += os.retained_ovrs;
        recomputed_ovrs += os.recomputed_ovrs;
        overlay = std::move(next);
        b0 = std::move(nb0);
      }
      overlay_ovrs = overlay.ovrs.size();
      Keep(overlay_ovrs);
    });
    op.Metric("retained_ovrs", static_cast<double>(retained));
    op.Metric("recomputed_ovrs", static_cast<double>(recomputed_ovrs));
    op.Metric("overlay_ovrs", static_cast<double>(overlay_ovrs));

    // Rebuild baseline: what a non-incremental server does per mutation —
    // rebuild the mutated layer's basic from scratch, then refold the
    // overlay. (overlay_patch pays the matching costs: Apply + Materialize
    // + PatchOverlay.) The per-update rebuilds fan out across --threads
    // workers.
    BenchCase& orb = ctx.Case("overlay_rebuild" + suffix)
                         .Param("n", n)
                         .Param("updates", updates);
    const Summary& orb_wall = ctx.Measure(orb, [&] {
      ParallelFor(ctx.threads(), updates, [&](size_t u) {
        const Movd b0u = BuildBasicMovd(script[u].after, 0, kWorld, 128);
        const Movd overlay = OverlapAll({b0u, b1}, mode);
        Keep(overlay.ovrs.size());
      });
    });
    orb.Derived("rebuild_over_patch",
                orb_wall.median / std::max(op_wall.median, 1e-9));
  }
}

}  // namespace movd::bench

MOVD_BENCH_MAIN("update")
