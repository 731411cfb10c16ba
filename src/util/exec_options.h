#ifndef MOVD_UTIL_EXEC_OPTIONS_H_
#define MOVD_UTIL_EXEC_OPTIONS_H_

#include "util/cancel.h"

namespace movd {

class Trace;

/// Construction algorithm for the approximated weighted Voronoi diagrams
/// (paper §5.3). Both produce the same WeightedCellApprox shape with the
/// same conservative-cover guarantee; they differ in how the dominance
/// regions are found.
enum class WeightedMethod {
  /// Adaptive quadtree refinement (DESIGN.md §11): classifies quad nodes
  /// by interval-arithmetic dominance bounds on the affine weighted
  /// distance and recurses only where the boundary is ambiguous. The
  /// default — orders of magnitude less work than the dense grid at the
  /// same effective resolution, and its covers contain the *entire*
  /// dominance region (not just sampled centers).
  kAdaptive,
  /// Brute-force dense-grid dominance sampling: O(resolution^2 * sites).
  /// Kept as the reference fallback; its per-sample owner grid is what
  /// the audit cross-checks replay bit-exactly.
  kDenseGrid,
};

/// Execution knobs shared by every pipeline entry point — solver options
/// (BatchOptions, which OptimizerOptions and MolqOptions extend) and the
/// serving layer (EngineRequest, QueryEngineOptions) embed one of these
/// instead of re-declaring the fields and copy-forwarding them across the
/// core/serve boundary. None of the knobs changes the answer: (location,
/// cost, group) is bit-identical for every thread count, with auditing on
/// or off, and with tracing on or off.
struct ExecOptions {
  /// Degree of parallelism: per-set basic-MOVD builds, weighted-grid
  /// dominance sampling, the overlap step's finder chunks, and the
  /// Fermat–Weber scan's chunks (which share the §5.4 cost bound). 1
  /// (default) keeps every stage serial, so paper-reproduction numbers
  /// are unchanged unless opted in; 0 means one thread per hardware
  /// thread.
  int threads = 1;

  /// Runs the structural invariant auditors (src/audit, DESIGN.md §7) as
  /// post-conditions at the pipeline seams and collects violations into
  /// the run's AuditReport instead of aborting. Defaults to off (audits
  /// cost extra passes over the built structures); building with
  /// -DMOVD_AUDIT=ON flips the default to on for the whole build.
#ifdef MOVD_AUDIT_DEFAULT_ON
  bool audit = true;
#else
  bool audit = false;
#endif

  /// Span sink (src/trace, DESIGN.md §9). Non-null makes every stage of
  /// the run record hierarchical timing spans + typed counters into this
  /// trace; null (default) disables tracing at near-zero cost (one
  /// thread-local read per would-be span). Tracing never changes answer
  /// bytes. The trace must outlive the call.
  Trace* trace = nullptr;

  /// Cooperative cancellation (serving deadlines, DESIGN.md §8). When the
  /// token fires, the pipeline unwinds at its next checkpoint — between
  /// stages, per overlap finder chunk and every 256 pairs inside one, per
  /// Fermat–Weber scan chunk and every 256 Weiszfeld iterations — and the
  /// entry point reports StatusCode::kCancelled with no answer fields
  /// populated (never a partial answer). Null means run to completion.
  const CancelToken* cancel = nullptr;

  /// Grid resolution used to approximate weighted Voronoi diagrams when a
  /// set has non-uniform object weights (§5.3). The adaptive method rounds
  /// this up to the next power of two (its effective leaf lattice).
  int weighted_grid_resolution = 128;

  /// How weighted diagrams are constructed (see WeightedMethod). Changes
  /// only the conservative covers' tightness/cost, never which locations a
  /// correct answer may come from.
  WeightedMethod weighted_method = WeightedMethod::kAdaptive;
};

}  // namespace movd

#endif  // MOVD_UTIL_EXEC_OPTIONS_H_
