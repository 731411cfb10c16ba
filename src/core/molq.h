#ifndef MOVD_CORE_MOLQ_H_
#define MOVD_CORE_MOLQ_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "model/movd_model.h"
#include "model/object.h"
#include "model/query_model.h"
#include "core/optimizer.h"
#include "core/overlap.h"
#include "core/ssc.h"
#include "geom/rect.h"
#include "util/exec_options.h"
#include "util/status.h"

namespace movd {

/// The three MOLQ evaluation strategies the paper compares (Figs. 8-9).
enum class MolqAlgorithm {
  kSsc,   ///< Sequential Scan Combinations baseline (§3)
  kRrb,   ///< MOVD pipeline, Real Region as Boundary (§5.2)
  kMbrb,  ///< MOVD pipeline, MBR as Boundary (§5.3)
};

/// End-to-end options for SolveMolq: the Optimizer's (core/optimizer.h:
/// the Fermat–Weber stopping rule, the §5.4 cost bound, the two-point
/// prefilter and the execution knobs shared with every other pipeline
/// entry point — threads, audit, trace sink, cancel token,
/// weighted-grid resolution; none of them changes the answer) plus the
/// evaluation strategy.
struct MolqOptions : OptimizerOptions {
  MolqAlgorithm algorithm = MolqAlgorithm::kRrb;
};

/// Terminal state of one MOLQ evaluation: StatusCode::kOk when the run
/// completed and the answer fields are valid, StatusCode::kInvalidArgument
/// when an object's weights make its weighted distance negative or
/// non-finite (CheckWeightTerms; nothing is built),
/// StatusCode::kCancelled when options.exec.cancel fired,
/// StatusCode::kInternal when the overlay came out empty (no object
/// combination owns any region; e.g. input so far from unit scale that
/// every Voronoi cell clips to nothing). No answer field is valid unless
/// kOk.

/// Per-stage instrumentation of one query evaluation.
struct MolqStats {
  int threads = 1;                ///< effective thread count of the run
  double vd_seconds = 0.0;        ///< VD Generator stage
  double overlap_seconds = 0.0;   ///< MOVD Overlapper stage
  double optimize_seconds = 0.0;  ///< Optimizer stage (or all of SSC)
  size_t final_ovrs = 0;          ///< |MOVD(Ē)| fed into the Optimizer
  size_t memory_bytes = 0;        ///< Movd::MemoryBytes of the final MOVD
  /// Ordinary-set sites whose cells the object filter left unclipped
  /// (CombinationBound::KeepSites; 0 without pruning).
  size_t pruned_objects = 0;
  /// Ordinary-set sites triangulated to clip the kept cells: the local
  /// triangulations around the kept sites, or every site of a set that
  /// fell back to the full triangulation (ClipKeptCells; 0 without
  /// pruning).
  size_t triangulated_sites = 0;
  /// The combination bound's U, MWGD at a point of the search space
  /// (CombinationBound::upper_bound; +inf without pruning).
  double upper_bound = std::numeric_limits<double>::infinity();
  OverlapStats overlap;  ///< pruned_pairs: pairs cut by combination pruning
  /// The Optimizer's or SSC's scan. `problems` is fixed by the input, but
  /// skipped_prefilter, pruned_by_bound and total_iterations vary with
  /// exec.threads on identical input: the shared cost bound tightens in a
  /// thread-dependent order. The answer does not vary.
  OptimizerStats optimizer;
};

/// Result of one MOLQ evaluation. Every entry point — SolveMolq,
/// SolveMolqTopK, TopKFromMovd — returns this one shape, so stats, the
/// audit report, and the trace handle always travel together instead of
/// by per-entry-point side channels.
struct MolqResult {
  /// kOk unless the weights are invalid, options.exec.cancel fired mid-run
  /// or the overlay came out empty (see above); the answer fields are
  /// only meaningful when kOk.
  StatusCode status = StatusCode::kOk;
  Point location;
  double cost = 0.0;
  /// The winning object combination (one PoiRef per set, sorted by set).
  std::vector<PoiRef> group;
  /// Top-k entry points: the k best answers ascending by cost (ranked[0]
  /// mirrors location/cost/group). SolveMolq leaves it with the single
  /// best answer, so `ranked` is always the full answer list. `criteria`
  /// is left empty: no MOLQ entry point computes it.
  std::vector<SiteCandidate> ranked;
  MolqStats stats;
  /// Findings of the invariant auditors, seam-labelled ("set 0 cells:
  /// ..."). Empty (0 checks) when options.exec.audit was off.
  AuditReport audit;
  /// The trace this run recorded into (== options.exec.trace; null when
  /// tracing was off). The caller owns it — this is a handle, not a copy.
  Trace* trace = nullptr;
};

/// Builds the basic MOVD of one object set (the framework's VD Generator,
/// Fig. 3): an exact ordinary Voronoi diagram when all object weights in
/// the set are equal (ς^o is then rank-preserving in the distance), or the
/// approximated weighted diagram of BuildWeightedCells otherwise (adaptive
/// quadtree, DESIGN.md §11). Either way the OVRs come in object order,
/// the canonical order of a basic MOVD: one per object that owns a
/// non-empty cell (the ordinary route gives a location's cell to its
/// first object).
/// `threads` parallelises the weighted construction when the set routes to
/// the approximated diagram (no effect on the exact ordinary path).
/// When `audit` is non-null, the structural auditors run on the built
/// diagram (post-Delaunay and post-cell-extraction seams; weighted cells
/// go through AuditAdaptiveWeightedCells) and merge their findings into
/// it. `weighted_method` is unread; it remains only because the perfbench
/// harness passes it (see WeightedMethod).
Movd BuildBasicMovd(const MolqQuery& query, int32_t set,
                    const Rect& search_space, int weighted_grid_resolution,
                    int threads = 1, AuditReport* audit = nullptr,
                    WeightedMethod weighted_method = WeightedMethod::kAdaptive);

/// True when BuildBasicMovd would take the exact ordinary-Voronoi route
/// for `set`: every object decomposes to the same affine weighted-distance
/// coefficients (a, b), so WD ranks objects exactly like plain distance.
/// The live-update path (src/core/update) uses this to decide whether a
/// layer can be patched incrementally or needs a full weighted rebuild.
bool OrdinaryDiagramSuffices(const MolqQuery& query, int32_t set);

/// The MOVD pipeline's front half, the one place a query's overlay is
/// built: the VD Generator (BuildBasicMovd per set, fanned out over
/// options.exec.threads) and the MOVD Overlapper (OverlapAll over the
/// basics in set order, Eq. 27), with a cancel check after each stage.
/// `prune` adds SolveMolq's CombinationBound (core/pruned_overlap.h); leave
/// it off where ranks beyond the first are needed. With `prune` the VD
/// Generator runs in three steps: the per-set fan-out only buckets the
/// ordinary sets' sites (SiteGrid; weighted sets build in full), the bound
/// is built from those grids (its grid pass fans out over the ordinary
/// sets), and a second fan-out over them drops the sites the bound rules
/// out (CombinationBound::KeepSites), triangulates only around the rest
/// and clips their cells (ClipKeptCells). The overlay is bit-identical to
/// the one the same bound gives over every cell. Fills result->stats
/// (threads, stage seconds, overlap counters, final_ovrs, memory_bytes,
/// pruned_objects, triangulated_sites, upper_bound), result->audit
/// (per-set and overlay seams when options.exec.audit; with `prune` the
/// dropped cells are built as well, to audit the full diagram and check
/// every kept cell against it) and result->status: kCancelled when the
/// token fired, kInternal when the overlay came out empty; the returned
/// MOVD is empty unless kOk. Spans attach to the caller's ambient trace.
/// options.algorithm must not be kSsc.
Movd BuildMolqOverlay(const MolqQuery& query, const Rect& search_space,
                      const MolqOptions& options, bool prune,
                      MolqResult* result);

/// Evaluates MOLQ(Ē, ς^t, σ) over `search_space` (paper Eq. 4): the
/// location minimising MWGD. Dispatches to SSC or to the MOVD pipeline
/// (BuildMolqOverlay -> Optimizer). The pipeline's overlap always prunes
/// hopeless object combinations (the paper's §8 future work, see
/// core/pruned_overlap.h): final_ovrs and the overlap counters describe
/// the reduced overlay, while the answer is bit-identical to the unpruned
/// stages BuildMolqOverlay(prune = false) -> OptimizeMovd. Exact cost ties
/// go to the GroupBefore-least group (core/optimizer.h), so the answer is
/// also the first rank of SolveMolqTopK and of a served SOLVE.
MolqResult SolveMolq(const MolqQuery& query, const Rect& search_space,
                     const MolqOptions& options = {});

}  // namespace movd

#endif  // MOVD_CORE_MOLQ_H_
