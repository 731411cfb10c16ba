#ifndef MOVD_SERVE_ENGINE_API_H_
#define MOVD_SERVE_ENGINE_API_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/molq.h"
#include "model/query_model.h"
#include "model/update_model.h"
#include "serve/metrics.h"
#include "util/exec_options.h"
#include "util/status.h"

namespace movd {

/// The typed serving API (DESIGN.md §15). Every front end — the line
/// protocol, the typed client library, molq_cli — builds one
/// `EngineRequest` and QueryEngine::Handle executes it as is: parsing,
/// admission control, deadlines and metrics all read the same envelope and
/// the same per-verb payload. The payloads are a std::variant over small
/// spec structs wrapping the query-algebra model vocabulary
/// (model/query_model.h) and the mutation model (model/update_model.h).

/// Which query shape a request evaluates (DESIGN.md §13). All shapes run
/// against the same cached MOVD artifacts; only the per-request evaluation
/// differs. SSC is a plain-MOLQ-only baseline, so every shape other than
/// kMolq rejects algo=ssc, and kConstrained additionally rejects mbrb (the
/// constraint clipper needs real regions).
enum class ServeQueryKind {
  kMolq,         ///< SOLVE: top-k optimal locations
  kSkyline,      ///< SKYLINE: Pareto-optimal candidate sites
  kDiverse,      ///< DIVERSE: top-k with a minimum pairwise distance
  kConstrained,  ///< CONSTRAIN: optimum inside a polygon, minus exclusions
  kWhatIf,       ///< WHATIF: batched rankings under scaled type weights
};

/// One immutable version of a registered dataset (DESIGN.md §14). Every
/// request pins exactly one snapshot for its whole evaluation, so its
/// answer is bit-identical under concurrent mutation; a mutation copies
/// the current snapshot, applies itself, and publishes the copy as
/// version + 1. Snapshots are shared out as shared_ptr<const> and never
/// mutated after publication.
struct DatasetSnapshot {
  uint64_t version = 0;    ///< monotonic per dataset, starting at 1
  MolqQuery query;         ///< the object sets at this version
  Rect world;              ///< search space (fixed across versions)
  std::string weight_tag;  ///< weight-mode component of cache keys
  /// Per layer: 1 when CheckWeightTerms passes on it. Set when the
  /// snapshot is made, so a request checks only its layers' flags.
  std::vector<uint8_t> valid_weights;
};

/// Counters for one applied mutation (the body of an INSERT/DELETE
/// response).
struct MutationStats {
  size_t recomputed_cells = 0;   ///< layer cells rebuilt by the patch
  size_t patched_artifacts = 0;  ///< cached artifacts patched in place
  size_t dropped_artifacts = 0;  ///< cached artifacts invalidated instead
  bool full_rebuild = false;     ///< incremental path unavailable/stalled
};

/// The engine's reply to one request.
struct ServeResponse {
  StatusCode status = StatusCode::kOk;
  std::string id = "-";
  std::string error;  ///< human-readable detail on non-kOk
  /// The answers in their shape's order (ascending by cost for SOLVE);
  /// empty on error. PoiRef::set is the DATASET layer index. `criteria` is
  /// filled by skyline/diverse/constrained/what-if and left empty for
  /// plain MOLQ, where the JSON omits it, so MOLQ response bytes are
  /// unchanged by the query-algebra shapes.
  std::vector<SiteCandidate> answers;
  /// kWhatIf only: one ranking per sweep vector, in request order
  /// (`answers` stays empty — a sweep has no single answer list).
  std::vector<std::vector<SiteCandidate>> sweep_answers;
  bool cache_hit = false;  ///< overlay artifact came straight from cache
  double seconds = 0.0;    ///< service time (solve, excluding queue wait)
  /// The dataset snapshot this response was computed against (set on OK
  /// responses): the version a query pinned, or the version a mutation
  /// published. Response formatting resolves group refs through it, so a
  /// response never races a concurrent mutation.
  std::shared_ptr<const DatasetSnapshot> snapshot;
  uint64_t version = 0;      ///< snapshot->version (0 when no snapshot)
  bool is_mutation = false;  ///< response body is mutation stats, not answers
  MutationStats mutation;    ///< filled for mutation responses
};

/// ---- Typed per-verb request payloads -----------------------------------
///
/// One small spec struct per verb, each carrying only the fields its verb
/// accepts (the registry's allowed_args mask and these structs stay in
/// lockstep — a field absent here cannot be parsed or set).

/// SOLVE: top-k optimal locations.
struct SolveSpec {
  MolqAlgorithm algorithm = MolqAlgorithm::kRrb;
  size_t topk = 1;
};

/// SKYLINE: Pareto-optimal candidate sites (rrb|mbrb).
struct SkylineSpec {
  MolqAlgorithm algorithm = MolqAlgorithm::kRrb;
};

/// DIVERSE: top-k with a minimum pairwise distance (rrb|mbrb).
struct DiverseSpec {
  MolqAlgorithm algorithm = MolqAlgorithm::kRrb;
  size_t topk = 1;
  double min_distance = 0.0;
};

/// CONSTRAIN: optimum inside a polygon, minus exclusions (RRB only, so no
/// algorithm field — RequestAlgorithm reports kRrb).
struct ConstrainSpec {
  QueryConstraint constraint;
};

/// WHATIF: batched top-k rankings under scaled type weights.
struct WhatIfSpec {
  MolqAlgorithm algorithm = MolqAlgorithm::kRrb;
  size_t topk = 1;
  /// One scale vector per sweep entry, each with exactly one entry per
  /// selected layer (ascending layer order).
  std::vector<std::vector<double>> sweep;
};

/// The per-verb payload: one alternative per non-control verb. Mutations
/// ride the model's own SiteMutation (model/update_model.h) directly.
using EngineOp = std::variant<SolveSpec, SkylineSpec, DiverseSpec,
                              ConstrainSpec, WhatIfSpec, SiteMutation>;

/// One typed request: the envelope every verb shares plus the per-verb
/// payload. This is what front ends build and QueryEngine::Handle takes.
/// Mutations read only id, dataset, cost_units and the op.
struct EngineRequest {
  std::string id = "-";         ///< client-chosen id, echoed in the response
  std::string dataset;          ///< registered dataset name
  std::vector<int32_t> layers;  ///< dataset layer indices; empty = all
  double epsilon = 1e-3;
  /// Per-request execution knobs (the same ExecOptions the core pipeline
  /// takes). exec.threads is per-request pipeline parallelism — the answer
  /// is bit-identical for every value. exec.trace (when non-null) traces
  /// this request. exec.cancel and exec.weighted_grid_resolution are
  /// overwritten by the engine (deadline token / engine-wide resolution).
  ExecOptions exec;
  /// Deadline budget in milliseconds, measured from the moment the engine
  /// picks the request up (Handle entry / queue dequeue). <= 0 means none.
  /// A fired deadline yields kDeadlineExceeded with no answer — never a
  /// partial one.
  double deadline_ms = 0.0;
  /// When false the request bypasses the artifact cache entirely (cold
  /// rebuild; used by the load generator to measure the cold path through
  /// the same engine).
  bool use_cache = true;
  /// Admission-control cost class, set by the protocol parser from the
  /// verb registry (queries 1, mutations heavier). Clamped to >= 1.
  int cost_units = 1;
  /// The per-verb payload.
  EngineOp op;
};

/// The query shape an EngineRequest evaluates (mutations report kMolq —
/// check IsMutation first).
ServeQueryKind EngineRequestKind(const EngineRequest& request);

/// Whether the request is an INSERT/DELETE mutation.
bool IsMutation(const EngineRequest& request);

/// The algorithm the request's shape runs: its spec's `algorithm`, or
/// kRrb for the shapes without one (CONSTRAIN is RRB-only; mutations run
/// no solver).
MolqAlgorithm RequestAlgorithm(const EngineRequest& request);

/// The number of answers the request asks for: its spec's `topk`, or 1
/// for the shapes without k.
size_t RequestTopK(const EngineRequest& request);

}  // namespace movd

#endif  // MOVD_SERVE_ENGINE_API_H_
