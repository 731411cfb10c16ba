#ifndef MOVD_UTIL_EXEC_OPTIONS_H_
#define MOVD_UTIL_EXEC_OPTIONS_H_

#include "util/cancel.h"

namespace movd {

class Trace;

/// The construction of the approximated weighted Voronoi diagrams (paper
/// §5.3). There is one: adaptive quadtree refinement (DESIGN.md §11,
/// BuildWeightedCells). The enum, ExecOptions::weighted_method and
/// BuildBasicMovd's trailing parameter remain only because the perfbench
/// harness still passes them; nothing in src/ reads them.
enum class WeightedMethod {
  kAdaptive,
};

/// Execution knobs shared by every pipeline entry point — solver options
/// (BatchOptions, which OptimizerOptions and MolqOptions extend) and the
/// serving layer (EngineRequest, QueryEngineOptions) embed one of these
/// instead of re-declaring the fields and copy-forwarding them across the
/// core/serve boundary. None of the knobs changes the answer: (location,
/// cost, group) is bit-identical for every thread count, with auditing on
/// or off, and with tracing on or off.
struct ExecOptions {
  /// Degree of parallelism: per-set basic-MOVD builds, the object
  /// filter's per-set pass over the ordinary sets, the weighted builder's
  /// node classification and cover extraction, the overlap step's finder
  /// chunks, and the Fermat–Weber scan's chunks (which share the §5.4
  /// cost bound). 1 (default) keeps every stage serial, so
  /// paper-reproduction numbers are unchanged unless opted in; 0 means one
  /// thread per hardware thread. Answers do not depend on it, but the
  /// scan's counters do (OptimizerStats::skipped_prefilter,
  /// pruned_by_bound, total_iterations; not `problems`): the shared bound
  /// tightens in a thread-dependent order.
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
  /// set has non-uniform object weights (§5.3). The builder rounds this up
  /// to the next power of two (its effective leaf lattice).
  int weighted_grid_resolution = 128;

  /// Single-valued and unread: nothing in src/ reads it (see
  /// WeightedMethod). Kept only so the perfbench harness, which passes it
  /// on, still compiles.
  WeightedMethod weighted_method = WeightedMethod::kAdaptive;
};

}  // namespace movd

#endif  // MOVD_UTIL_EXEC_OPTIONS_H_
