#ifndef MOVD_SERVE_QUERY_ENGINE_H_
#define MOVD_SERVE_QUERY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/molq.h"
#include "core/topk.h"
#include "core/update.h"
#include "model/query_model.h"
#include "model/update_model.h"
#include "serve/artifact_cache.h"
#include "serve/engine_api.h"
#include "serve/metrics.h"
#include "util/exec_options.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace movd {

struct QueryEngineOptions {
  /// Artifact-cache budget in bytes (ArtifactBytes accounting). 0 disables
  /// caching — every request rebuilds from scratch.
  size_t cache_bytes = 256ull << 20;
  /// Worker threads draining the request queue (HandleAsync). 0 = one per
  /// hardware thread. Workers only control cross-request concurrency;
  /// per-request parallelism is EngineRequest::exec.threads, and answers
  /// are bit-identical regardless of either knob.
  int workers = 0;
  /// Engine-wide execution defaults. exec.weighted_grid_resolution is the
  /// grid resolution for weighted-diagram approximation (part of every
  /// cache key, so datasets served at different resolutions never share
  /// artifacts). exec.trace, when non-null, traces every request that does
  /// not bring its own request-level trace (movd_serve --trace). exec.audit
  /// additionally gates every mutation's patched artifacts against a
  /// from-scratch rebuild (falling back to the rebuild on mismatch). The
  /// per-request knobs (threads/cancel) are ignored here.
  ExecOptions exec;
  /// Admission control (DESIGN.md §14): total cost units allowed in the
  /// HandleAsync queue before new requests are shed with kOverloaded.
  /// 0 disables queue-depth shedding.
  size_t admission_cost_limit = 0;
  /// Queue-delay budget in milliseconds: a request is shed with
  /// kOverloaded when its predicted (at submit, from the service-time
  /// EWMA) or actual (at dequeue) queue delay exceeds this. 0 disables
  /// delay shedding.
  double admission_delay_budget_ms = 0.0;
};

/// Outcome of a warm-start cache load.
struct WarmLoadResult {
  size_t loaded = 0;  ///< artifacts inserted into the cache
  size_t failed = 0;  ///< artifacts skipped (corrupt, missing or unfit)
  Status status;      ///< non-OK when the manifest itself was bad
};

/// A resident MOLQ serving engine (DESIGN.md §8): owns registered datasets
/// as immutable versioned snapshots, a byte-accounted LRU cache of built
/// artifacts (per-layer basic MOVDs and overlay MOVDs, keyed by snapshot
/// version), a request queue batched onto util/thread_pool with admission
/// control, and serving metrics. The paper's split between the reusable VD
/// Generator stage and the per-query Optimizer stage (§5.1) is exactly the
/// cache boundary: diagrams and overlays are cached and shared across
/// requests, the Fermat–Weber optimization runs per request.
///
/// Live updates (DESIGN.md §14): Handle routes mutation requests through
/// the patcher (core/update.h). Each ordinary layer keeps a mirror whose
/// batch Delaunay triangulation is patched in place, so only the Voronoi
/// cells whose neighbour sets changed are re-clipped; a deletion whose
/// star-hole re-triangulation stalls restarts the mirror from the mutated
/// query instead. Cached overlays are patched by re-folding only the
/// changed cells through Overlap, and the result is published as a new
/// immutable snapshot.
/// Cache keys carry the snapshot version, so artifacts of superseded
/// versions go cold and age out through the LRU byte accounting while
/// in-flight queries pinned to them keep answering bit-identically.
///
/// Every front end — movd_serve, molq_cli, the tests — calls
/// Handle/HandleAsync with a typed EngineRequest (serve/engine_api.h).
///
/// Thread-safety: RegisterDataset must finish before serving starts;
/// Handle/HandleAsync (queries and mutations alike) are then safe from any
/// number of threads. Mutations serialize per dataset.
class QueryEngine {
 public:
  explicit QueryEngine(const QueryEngineOptions& options = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Registers (or replaces) a dataset: the object sets, their weight
  /// functions, and the search space queries run over. A replacement
  /// publishes a fresh snapshot whose version is newer than any prior one
  /// (never reusing a version, so stale cached artifacts cannot collide).
  void RegisterDataset(const std::string& name, MolqQuery query,
                       const Rect& world) MOVD_EXCLUDES(datasets_mu_);

  /// The dataset's current snapshot; null when unknown. The pointer stays
  /// valid (and immutable) for as long as the caller holds it, however
  /// many mutations publish newer versions meanwhile.
  std::shared_ptr<const DatasetSnapshot> dataset_snapshot(
      const std::string& name) const;

  /// Serves one request synchronously on the calling thread: a query is
  /// solved against its pinned snapshot, a mutation is applied and
  /// published. The deadline clock starts now.
  ServeResponse Handle(const EngineRequest& request);

  /// Enqueues one request onto the engine's worker pool; the returned
  /// future resolves when a worker has served it. The deadline clock
  /// starts when a worker dequeues the request, so queueing delay does not
  /// eat the solve budget (the line protocol reports total time anyway).
  /// Admission control applies here: a request may resolve immediately to
  /// kOverloaded when the queue's cost depth or predicted delay exceeds
  /// the configured budgets, and again at dequeue when its actual queue
  /// delay blew the budget.
  std::future<ServeResponse> HandleAsync(EngineRequest request);

  /// Test seam: replaces the clock the admission queue reads (milliseconds
  /// on any monotonic timeline) to stamp a request at submit and measure
  /// its queue delay at dequeue. The default is the engine's own
  /// stopwatch; a test substitutes a scripted clock so delay shedding does
  /// not depend on when the OS schedules a worker. Call before serving.
  void SetQueueClockForTesting(std::function<double()> now_ms) {
    queue_now_ms_ = std::move(now_ms);
  }

  const ServeMetrics& metrics() const { return metrics_; }
  ArtifactCache::Stats cache_stats() const { return cache_.stats(); }
  /// Serving metrics as the STATS JSON body / a human-readable table.
  std::string MetricsJson() const { return metrics_.Json(cache_.stats()); }
  void DumpMetrics(std::FILE* out) const {
    metrics_.DumpTable(out, cache_.stats());
  }

  /// Warm start: persists every resident artifact to `dir` (created if
  /// missing) as MOVD files plus a manifest mapping keys to files, one
  /// line per artifact: file, key and the file's binding to that key
  /// (FNV-1a over the key, a tab and the file's bytes; 16 hex digits),
  /// tab-separated.
  /// kIoError (with the failing path in the message) on I/O failure.
  Status SaveCache(const std::string& dir) const;

  /// Loads a SaveCache snapshot back into the cache. An artifact is
  /// skipped and counted in `failed` — a damaged snapshot degrades to a
  /// colder cache, never a crash or a bad artifact — when its line carries
  /// no binding or one its key and file bytes do not reproduce (a file
  /// saved under another key, such as a clip's line pointing at the
  /// unclipped overlay's file), when its file fails the movd_file
  /// header/record checks, or when it does not fit a
  /// registered dataset: its key must be one ArtifactKey::Parse accepts,
  /// naming the dataset at its *current* version (a version number does not identify the same objects across
  /// processes) and carry this engine's grid resolution and the dataset's
  /// weight tag (a key built under another configuration is one no lookup
  /// builds), and every OVR must hold exactly the key's layers in
  /// ascending order, index objects inside that snapshot, carry a region
  /// unless the key is MBRB, and hold its group once (the overlay
  /// invariant of model/movd_model.h). Register datasets before loading.
  WarmLoadResult LoadCache(const std::string& dir);

 private:
  struct Dataset {
    /// Guards the published snapshot pointer (readers copy it out).
    mutable Mutex mu;
    std::shared_ptr<const DatasetSnapshot> snap MOVD_GUARDED_BY(mu);
    /// Serializes mutations on this dataset and guards the incremental
    /// per-layer mirrors. Lock order: mutate_mu before mu.
    Mutex mutate_mu;
    std::map<int32_t, std::unique_ptr<OrdinaryLayerState>> layer_state
        MOVD_GUARDED_BY(mutate_mu);
  };

  Dataset* FindDataset(const std::string& name) const
      MOVD_EXCLUDES(datasets_mu_);
  ServeResponse SolveInternal(const EngineRequest& request,
                              const CancelToken& token);
  /// Applies one mutation: validates it against the current snapshot,
  /// patches the triangulation/cells incrementally (full rebuild when the
  /// layer is weighted or the incremental deletion stalls), patches or
  /// re-keys every cached artifact of the dataset, and publishes the new
  /// snapshot. Serialized per dataset by Dataset::mutate_mu.
  ServeResponse MutateInternal(const EngineRequest& request,
                               const SiteMutation& mut);
  /// The artifact-maintenance half of a mutation: produce the mutated
  /// layer's new basic (incrementally when possible), then walk the cache
  /// and patch/re-key/drop every entry of `ds_name` at `old_snap`'s
  /// version. `state_slot` is the dataset's mirror slot for the mutated
  /// layer (owned by the caller under mutate_mu).
  void PatchArtifacts(const std::string& ds_name,
                      const DatasetSnapshot& old_snap,
                      const DatasetSnapshot& next_snap,
                      const SiteMutation& mut, int32_t deleted_object,
                      std::unique_ptr<OrdinaryLayerState>* state_slot,
                      MutationStats* stats);
  /// The overlay artifact for (dataset snapshot, layers, mode): cache
  /// lookup, else built from per-layer basic artifacts (themselves
  /// cached). Null when the token fired first.
  std::shared_ptr<const Movd> GetOverlay(const DatasetSnapshot& ds,
                                         const std::string& ds_name,
                                         const std::vector<int32_t>& layers,
                                         BoundaryMode mode,
                                         const EngineRequest& request,
                                         const CancelToken& token,
                                         bool* overlay_hit);
  /// The RRB overlay clipped to `constraint`, cached under a clip key
  /// carrying the constraint's hash (ArtifactKey::Kind::kClipped), so
  /// repeats of the same constraint reuse the clip. The unclipped overlay
  /// is fetched through GetOverlay (hence itself cached); `overlay_hit`
  /// reports the clipped-artifact lookup. Null when the deadline fired.
  std::shared_ptr<const Movd> GetClippedOverlay(
      const DatasetSnapshot& ds, const std::string& ds_name,
      const std::vector<int32_t>& layers, const QueryConstraint& constraint,
      const EngineRequest& request, const CancelToken& token,
      bool* overlay_hit);

  QueryEngineOptions options_;
  mutable Mutex datasets_mu_;
  /// Registration inserts under the lock; Dataset entries are never erased
  /// (re-registration publishes a fresh snapshot into the existing entry),
  /// so pointers handed out by FindDataset stay valid after the lock
  /// drops (see the class comment's contract).
  std::map<std::string, std::unique_ptr<Dataset>> datasets_
      MOVD_GUARDED_BY(datasets_mu_);
  ArtifactCache cache_;
  ServeMetrics metrics_;
  ThreadPool pool_;
  /// The admission queue's clock (SetQueueClockForTesting); reads
  /// `epoch_` unless a test substituted it.
  Stopwatch epoch_;
  std::function<double()> queue_now_ms_;
  /// Admission-control state: cost units currently queued (submitted, not
  /// yet dequeued) and a relaxed EWMA of per-cost-unit service time in
  /// nanoseconds. Both are heuristic inputs to shedding — racy reads are
  /// fine, monotonic correctness is not required.
  std::atomic<int64_t> queued_cost_{0};
  std::atomic<uint64_t> ewma_unit_ns_{0};
};

}  // namespace movd

#endif  // MOVD_SERVE_QUERY_ENGINE_H_
