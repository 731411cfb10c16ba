#include "core/molq.h"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>

#include "audit/audit.h"
#include "audit/audit_delaunay.h"
#include "audit/audit_overlay.h"
#include "audit/audit_voronoi.h"
#include "audit/audit_weighted.h"
#include "core/pruned_overlap.h"
#include "core/weighted_distance.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "voronoi/delaunay.h"
#include "voronoi/voronoi.h"
#include "voronoi/weighted.h"

namespace movd {

// True when the set's full weighted distance WD(q, p) = a*d(q, p) + b has
// identical coefficients (a, b) for every object, so WD ranks objects
// exactly like plain distance and the ordinary Voronoi diagram is exact.
// This covers the paper's default (all weights 1) and any per-type
// constant weights; per-object weights route to the weighted diagram.
bool OrdinaryDiagramSuffices(const MolqQuery& query, int32_t set) {
  const ObjectSet& objects = query.sets.at(set);
  MOVD_CHECK_MSG(!objects.objects.empty(),
                 "every query set needs at least one object");
  const FermatWeberTerm first = DecomposeWeightedDistance(
      objects.objects.front(), query.type_function,
      query.ObjectFunction(set));
  for (const SpatialObject& obj : objects.objects) {
    const FermatWeberTerm term = DecomposeWeightedDistance(
        obj, query.type_function, query.ObjectFunction(set));
    if (term.fw_weight != first.fw_weight || term.offset != first.offset) {
      return false;
    }
  }
  return true;
}

namespace {

// Re-labels every violation of `sub` with the pipeline seam that caught it
// and folds it into `total`.
void MergeStageAudit(AuditReport sub, const std::string& stage,
                     AuditReport* total) {
  AuditReport labelled;
  labelled.NoteChecks(sub.checks());
  for (const AuditViolation& v : sub.violations()) {
    labelled.Add(v.kind, stage + ": " + v.message, v.indices, v.witness);
  }
  total->Merge(std::move(labelled));
}

// The ordinary route's first step: the set's object locations in input
// order, sorted, deduplicated and triangulated.
VoronoiDiagram TriangulateSet(const MolqQuery& query, int32_t set,
                              const Rect& search_space) {
  const ObjectSet& objects = query.sets.at(set);
  std::vector<Point> sites;
  sites.reserve(objects.objects.size());
  for (const SpatialObject& obj : objects.objects) {
    sites.push_back(obj.location);
  }
  return VoronoiDiagram::Triangulate(sites, search_space);
}

// The ordinary route's last step: clips the cells `keep` marks (every cell
// when it is empty), runs the per-set audit seams, and moves the cells
// into the set's basic MOVD. Only `vd`'s cells change, so other threads
// may read its sites and neighbour table meanwhile.
//
// A cell is a pure function of (site, LessXY-sorted Delaunay neighbour
// set, bounds), which is what lets the live-update path (src/core/update)
// recompute only the cells whose neighbour sets a mutation touched and
// still produce bytes identical to this full build, and what makes a kept
// cell bit-equal to its cell in the full diagram.
Movd OrdinaryMovd(VoronoiDiagram* vd, int32_t set,
                  std::span<const uint8_t> keep, AuditReport* audit) {
  std::optional<VoronoiDiagram> full;
  if (audit != nullptr && !keep.empty()) {
    // The dropped cells too, for the audit only, so outside the trace.
    TraceContextScope untraced(nullptr);
    full = *vd;
    full->ClipCells();
  }
  vd->ClipCells(keep);
  if (audit != nullptr) {
    // Post-Delaunay seam: the triangulation the cells were clipped from
    // (rebuilt here on demand; the diagram does not keep it).
    const std::string tag = "set " + std::to_string(set);
    MergeStageAudit(AuditDelaunay(Delaunay(vd->sites())), tag + " delaunay",
                    audit);
    // Post-cell-extraction seam: the full diagram, and with a filter every
    // kept cell against it.
    MergeStageAudit(AuditVoronoi(full ? *full : *vd), tag + " cells", audit);
    if (full) {
      MergeStageAudit(AuditKeptCells(*full, *vd, keep), tag + " kept cells",
                      audit);
    }
  }
  // The diagram deduplicates site locations and keeps each site's lowest
  // input index; TriangulateSet lists the objects in order, so that is
  // the first object at the site's location.
  return MovdFromCells(std::move(*vd).TakeCells(), set, vd->first_input());
}

}  // namespace

Movd BuildBasicMovd(const MolqQuery& query, int32_t set,
                    const Rect& search_space, int weighted_grid_resolution,
                    int threads, AuditReport* audit,
                    WeightedMethod /*weighted_method*/) {
  const ObjectSet& objects = query.sets.at(set);
  MOVD_CHECK_MSG(!objects.objects.empty(),
                 "every query set needs at least one object");

  if (OrdinaryDiagramSuffices(query, set)) {
    TRACE_SPAN("ordinary_voronoi");
    VoronoiDiagram vd = TriangulateSet(query, set, search_space);
    return OrdinaryMovd(&vd, set, {}, audit);
  }

  // Weighted diagram: conservative approximation (paper §5.3; see
  // DESIGN.md §11). The dominance metric is the set's full affine weighted
  // distance WD(q, p) = a*d + b with (a, b) from the ς^t/ς^o
  // decomposition, so the diagram is exact in intent for every supported
  // weight-function combo.
  TraceSpan span("weighted_grid");
  std::vector<WeightedSite> sites;
  sites.reserve(objects.objects.size());
  for (const SpatialObject& obj : objects.objects) {
    const FermatWeberTerm term = DecomposeWeightedDistance(
        obj, query.type_function, query.ObjectFunction(set));
    sites.push_back({obj.location, term.fw_weight, term.offset});
  }
  WeightedOptions wopts;
  wopts.resolution = weighted_grid_resolution;
  wopts.threads = threads;
  const auto cells = BuildWeightedCells(sites, search_space, wopts);
  if (audit != nullptr) {
    // Post-cell-extraction seam, weighted route: the structural checks
    // plus the dense-lattice replay of the cover-containment guarantee.
    MergeStageAudit(AuditAdaptiveWeightedCells(sites, cells, search_space,
                                               weighted_grid_resolution),
                    "set " + std::to_string(set) + " weighted cells", audit);
  }
  std::vector<int32_t> object_of_site(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    object_of_site[i] = static_cast<int32_t>(i);
  }
  WeightedCoverStats cover_stats;
  Movd movd = MovdFromWeightedApprox(cells, set, object_of_site, &cover_stats);
  span.Counter("cover_pieces", static_cast<int64_t>(cover_stats.pieces));
  span.Counter("mbr_fallbacks",
               static_cast<int64_t>(cover_stats.mbr_fallbacks));
  return movd;
}

Movd BuildMolqOverlay(const MolqQuery& query, const Rect& search_space,
                      const MolqOptions& options, bool prune,
                      MolqResult* result) {
  MOVD_CHECK_MSG(options.algorithm != MolqAlgorithm::kSsc,
                 "SSC builds no overlay");
  const BoundaryMode mode = options.algorithm == MolqAlgorithm::kRrb
                                ? BoundaryMode::kRealRegion
                                : BoundaryMode::kMbr;
  const int threads = ResolveThreads(options.exec.threads);
  result->stats.threads = threads;

  // Stage 1: VD Generator — one basic MOVD per object set (Property 7).
  // Each set's diagram builds independently; the grid sampler of weighted
  // sets gets the threads the set-level fan-out leaves unused. With
  // pruning, an ordinary set only triangulates in the first fan-out; once
  // the bound is built, a second fan-out drops the sites it rules out and
  // clips the cells of the rest (core/pruned_overlap.h).
  Stopwatch sw;
  const size_t num_sets = query.sets.size();
  const int inner_threads =
      std::max(1, threads / static_cast<int>(num_sets));
  std::vector<Movd> basic(num_sets);
  // One pre-sized report slot per set: hook writes stay thread-private
  // under the ParallelFor and are folded serially below.
  std::vector<AuditReport> set_audits(options.exec.audit ? num_sets : 0);
  const auto audit_of = [&](size_t i) {
    return options.exec.audit ? &set_audits[i] : nullptr;
  };
  std::optional<CombinationBound> bound;
  {
    TraceSpan vd_span("vd_generator");
    const Trace::Context ctx = Trace::CaptureContext();
    std::vector<std::optional<VoronoiDiagram>> triangulated(num_sets);
    ParallelFor(threads, num_sets, [&](size_t i) {
      // Pool threads have no ambient trace; re-install the caller's so
      // the per-set builder spans parent under "vd_generator".
      TraceContextScope scope(ctx);
      TRACE_SPAN("build_basic_movd");
      const auto set = static_cast<int32_t>(i);
      if (prune && OrdinaryDiagramSuffices(query, set)) {
        TRACE_SPAN("ordinary_voronoi");
        triangulated[i] = TriangulateSet(query, set, search_space);
        return;
      }
      basic[i] = BuildBasicMovd(query, set, search_space,
                                options.exec.weighted_grid_resolution,
                                inner_threads, audit_of(i));
    });
    if (prune) {
      bound.emplace(query, search_space, options.epsilon);
      std::vector<const VoronoiDiagram*> diagrams(num_sets, nullptr);
      std::vector<size_t> ordinary;
      for (size_t i = 0; i < num_sets; ++i) {
        if (!triangulated[i]) continue;
        diagrams[i] = &*triangulated[i];
        ordinary.push_back(i);
      }
      // Each task reads every diagram's sites and neighbour table and
      // changes only its own set's cells.
      std::vector<size_t> dropped(num_sets, 0);
      ParallelFor(threads, ordinary.size(), [&](size_t k) {
        TraceContextScope scope(ctx);
        const size_t i = ordinary[k];
        const auto set = static_cast<int32_t>(i);
        std::vector<uint8_t> keep;
        {
          TraceSpan span("object_filter");
          CombinationBound::FilterStats filter;
          bound->KeepSites(set, diagrams, &keep, &filter);
          span.Counter("objects", static_cast<int64_t>(filter.objects));
          span.Counter("kept", static_cast<int64_t>(filter.kept));
          span.Counter("walk_steps", static_cast<int64_t>(filter.walk_steps));
          dropped[i] = filter.objects - filter.kept;
        }
        basic[i] = OrdinaryMovd(&*triangulated[i], set, keep, audit_of(i));
      });
      for (const size_t d : dropped) result->stats.pruned_objects += d;
    }
  }
  result->stats.vd_seconds = sw.ElapsedSeconds();

  // Stage-boundary cancellation checkpoint: the per-set diagram builds are
  // bounded and not individually interruptible, so the deadline is
  // enforced here before the (typically dominant) overlap stage starts.
  if (TokenExpired(options.exec.cancel)) {
    result->status = StatusCode::kCancelled;
    return Movd();
  }

  // Stage 2: MOVD Overlapper — sequential ⊕ over the basic MOVDs (Eq. 27),
  // optionally skipping the pairs whose combination cannot hold the
  // optimum (§8 future work; the answer stays that of the unpruned
  // overlay).
  sw.Reset();
  Movd movd;
  {
    TRACE_SPAN("movd_overlap");
    movd = OverlapAll(basic, mode, &result->stats.overlap,
                      options.exec.cancel, threads,
                      bound ? &*bound : nullptr);
  }
  // A token that fired during the sweep leaves `movd` truncated — discard
  // it and report cancellation instead of handing on a partial overlay.
  if (TokenExpired(options.exec.cancel)) {
    result->status = StatusCode::kCancelled;
    return Movd();
  }
  result->stats.overlap_seconds = sw.ElapsedSeconds();
  result->stats.final_ovrs = movd.ovrs.size();
  result->stats.memory_bytes = movd.MemoryBytes(mode);

  if (options.exec.audit) {
    // Post-overlay seam, plus the per-set reports gathered in stage 1.
    TRACE_SPAN("audit_overlay");
    for (AuditReport& sub : set_audits) result->audit.Merge(std::move(sub));
    MergeStageAudit(AuditMovdOverlay(movd, basic, mode, search_space),
                    "overlay", &result->audit);
  }
  // No combination owns any region, so there is nothing to optimise
  // (every cell clipped to nothing, as at coordinates far from unit scale).
  if (movd.ovrs.empty()) result->status = StatusCode::kInternal;
  return movd;
}

MolqResult SolveMolq(const MolqQuery& query, const Rect& search_space,
                     const MolqOptions& options) {
  MOVD_CHECK_MSG(!query.sets.empty(),
                 "a MOLQ needs at least one object set");
  MOVD_CHECK_MSG(!search_space.Empty(),
                 "the search space must be a non-empty rectangle");
  MolqResult result;
  result.trace = options.exec.trace;
  // Install the run's trace as this thread's ambient trace: every span
  // below (and in the builders/optimizer we call) attaches to it without
  // threading a pointer through each signature.
  TraceContextScope trace_scope(options.exec.trace);
  TRACE_SPAN("solve_molq");
  result.stats.threads = ResolveThreads(options.exec.threads);

  OptimizerResult r;
  Stopwatch sw;
  if (options.algorithm == MolqAlgorithm::kSsc) {
    r = SolveSsc(query, options);
  } else {
    // Stages 1-2, with combination pruning.
    const Movd movd = BuildMolqOverlay(query, search_space, options,
                                       /*prune=*/true, &result);
    if (result.status != StatusCode::kOk) return result;
    // Stage 3: Optimizer — best local optimum across OVRs (§5.4).
    sw.Reset();
    TRACE_SPAN("optimize_movd");
    r = OptimizeMovd(query, movd, options);
  }
  result.stats.optimize_seconds = sw.ElapsedSeconds();
  result.stats.optimizer = r.stats;
  if (r.cancelled) {
    result.status = StatusCode::kCancelled;
    return result;
  }
  result.location = r.location;
  result.cost = r.cost;
  result.group = r.group;
  result.ranked.push_back({r.location, r.cost, {}, r.group});
  return result;
}

}  // namespace movd
