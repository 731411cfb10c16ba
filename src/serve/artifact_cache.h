#ifndef MOVD_SERVE_ARTIFACT_CACHE_H_
#define MOVD_SERVE_ARTIFACT_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/movd_model.h"
#include "util/cancel.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace movd {

/// Serialized-format byte count of one MOVD artifact (the sum of its OVR
/// record sizes plus the file header and trailer) — the unit the cache's
/// byte budget is accounted in. Deterministic and boundary-mode
/// independent, unlike Movd::MemoryBytes, so a cache budget means the same
/// thing for basic diagrams, RRB overlays and MBRB overlays, and matches
/// the bytes a warm-start snapshot occupies on disk.
size_t ArtifactBytes(const Movd& movd);

/// A byte-accounted, single-flight LRU cache of built MOVD artifacts
/// (basic per-layer diagrams and overlay results), keyed by opaque strings
/// (QueryEngine writes them with ArtifactKey, serve/artifact_key.h).
///
/// Concurrency contract:
///  - Lookups, inserts and evictions are serialized by one mutex; the
///    artifacts themselves are immutable and handed out as
///    shared_ptr<const Movd>, so an eviction never invalidates a value a
///    request is still using.
///  - GetOrBuild is single-flight: when several requests miss on the same
///    key concurrently, exactly one runs the builder (outside the lock)
///    while the rest wait on it — a thundering herd of identical queries
///    builds the artifact once. Waiters honour their own deadline; a
///    waiter that times out returns null without disturbing the build.
///  - A builder that returns null (its request's deadline fired mid-build)
///    caches nothing; one of the surviving waiters takes over the build.
class ArtifactCache {
 public:
  /// Monotonic counters + current occupancy, for ServeMetrics dumps.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;        ///< lookups that ran (or joined) a build
    uint64_t evictions = 0;     ///< entries evicted to fit the budget
    uint64_t inserts = 0;       ///< successful inserts
    uint64_t oversize = 0;      ///< artifacts too big to cache at all
    uint64_t wait_timeouts = 0; ///< waiters whose deadline fired first
    size_t bytes = 0;           ///< resident artifact bytes
    size_t capacity = 0;        ///< configured budget
    size_t entries = 0;         ///< resident artifact count
  };

  /// Builds an artifact on a miss. Returns null when the build was
  /// abandoned (deadline fired); nothing is cached then.
  using Builder = std::function<std::shared_ptr<const Movd>()>;

  /// A cache with a `capacity_bytes` budget (accounted via ArtifactBytes).
  /// Capacity 0 disables caching entirely: every artifact is oversize, so
  /// every request takes the cold build path (used to benchmark the cold
  /// pipeline through the same engine).
  explicit ArtifactCache(size_t capacity_bytes);

  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  /// Returns the cached artifact for `key`, building it via `builder` on a
  /// miss (single-flight across concurrent callers). `was_hit` (optional)
  /// reports whether the artifact came out of the cache without running or
  /// waiting on a build. `wait_deadline` bounds how long this caller may
  /// block on another caller's in-flight build; pass
  /// CancelToken::Clock::time_point::max() for "wait as long as it takes".
  /// Returns null only when the build was abandoned or the wait timed out.
  std::shared_ptr<const Movd> GetOrBuild(
      const std::string& key, const Builder& builder,
      bool* was_hit = nullptr,
      CancelToken::Clock::time_point wait_deadline =
          CancelToken::Clock::time_point::max()) MOVD_EXCLUDES(mu_);

  /// Pure lookup: the artifact, or null on a miss. Does not count a miss
  /// toward stats (used by tests and warm-start bookkeeping).
  std::shared_ptr<const Movd> Lookup(const std::string& key)
      MOVD_EXCLUDES(mu_);

  /// Inserts (or refreshes) an artifact, evicting LRU entries to fit. An
  /// artifact bigger than the whole budget is not cached (counted as
  /// oversize). Used by GetOrBuild and by warm-start loading.
  void Insert(const std::string& key, std::shared_ptr<const Movd> artifact)
      MOVD_EXCLUDES(mu_);

  /// Current counters/occupancy snapshot.
  Stats stats() const MOVD_EXCLUDES(mu_);

  /// All resident artifacts, most- to least-recently used. The snapshot
  /// is what warm-start persistence serializes.
  std::vector<std::pair<std::string, std::shared_ptr<const Movd>>> Snapshot()
      const MOVD_EXCLUDES(mu_);

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const Movd> artifact;
    size_t bytes = 0;
  };
  /// One in-flight build; waiters block on `cv` until `done`. `done` is
  /// guarded by the owning cache's mu_ (unannotated: the capability lives
  /// in the outer class, out of this struct's scope).
  struct InFlight {
    CondVar cv;
    bool done = false;
  };

  void InsertLocked(const std::string& key,
                    std::shared_ptr<const Movd> artifact) MOVD_REQUIRES(mu_);

  mutable Mutex mu_;
  /// LRU list, front = most recently used. Iteration for snapshots walks
  /// this list (deterministic recency order), never the unordered index.
  std::list<Entry> lru_ MOVD_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      MOVD_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight_
      MOVD_GUARDED_BY(mu_);
  size_t capacity_ = 0;  ///< immutable after construction
  size_t bytes_ MOVD_GUARDED_BY(mu_) = 0;
  uint64_t hits_ MOVD_GUARDED_BY(mu_) = 0;
  uint64_t misses_ MOVD_GUARDED_BY(mu_) = 0;
  uint64_t evictions_ MOVD_GUARDED_BY(mu_) = 0;
  uint64_t inserts_ MOVD_GUARDED_BY(mu_) = 0;
  uint64_t oversize_ MOVD_GUARDED_BY(mu_) = 0;
  uint64_t wait_timeouts_ MOVD_GUARDED_BY(mu_) = 0;
};

}  // namespace movd

#endif  // MOVD_SERVE_ARTIFACT_CACHE_H_
