#ifndef MOVD_TRACE_TRACE_H_
#define MOVD_TRACE_TRACE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"

namespace movd {

/// One closed span, reconstructed by Trace::Collect(). `parent` indexes
/// into the same vector (-1 for a root). A span started inside a
/// ParallelFor body parents to the span that was open at the call site
/// even though it ran on a different thread; `tid` tells the two apart.
struct TraceSpanRecord {
  std::string name;
  int tid = 0;          ///< per-trace thread index (0 = first registered)
  int64_t start_ns = 0;  ///< nanoseconds since the trace was constructed
  int64_t dur_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  int depth = 0;    ///< root = 0; equals parent's depth + 1
  std::vector<std::pair<std::string, int64_t>> counters;
};

/// Per-name aggregate over a collected trace (the "per-phase table").
struct TracePhaseRow {
  std::string name;
  int64_t count = 0;
  int64_t total_ns = 0;  ///< sum of span durations for this name
  /// `total_ns` minus time covered by same-thread child spans. Children
  /// running concurrently on other threads are NOT subtracted (their time
  /// overlaps the parent's wall time instead of consuming it).
  int64_t self_ns = 0;
  std::vector<std::pair<std::string, int64_t>> counters;  ///< summed
};

/// A hierarchical, thread-aware span collector (DESIGN.md §9).
///
/// A Trace is installed as the calling thread's *ambient* trace with
/// TraceContextScope; TRACE_SPAN / TraceSpan then record into it with no
/// argument threading. When no trace is ambient (the default), a span
/// degenerates to one thread-local read — cheap enough to leave spans
/// compiled into release builds.
///
/// Each recording thread appends begin/end events to its own log; the
/// only cross-thread synchronisation on the hot path is the first span a
/// thread records into a given trace (a registration mutex, amortised
/// away by a thread-local cache). Tracing therefore composes with
/// util/thread_pool and never perturbs answers: spans observe the
/// pipeline, they do not order it.
///
/// ParallelFor bodies run on pool threads that have no ambient trace of
/// their own. Capture the caller's context once before the loop and
/// install it per iteration:
///
///   Trace::Context ctx = Trace::CaptureContext();
///   ParallelFor(n, threads, [&](size_t i) {
///     TraceContextScope scope(ctx);
///     TRACE_SPAN("weighted_adaptive_classify");
///     ...
///   });
///
/// Collect()/exporters require quiescence: every span closed and every
/// recording thread joined (a ParallelFor return satisfies both).
class Trace {
 public:
  Trace();
  ~Trace();

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// The calling thread's ambient trace (null if none installed).
  static Trace* ThreadCurrent();

  /// Ambient trace + currently open span, as an opaque value that can be
  /// handed to another thread and re-installed with TraceContextScope.
  struct Context {
    Trace* trace = nullptr;
    uint64_t span = 0;  ///< global id of the open span, 0 if none
  };
  static Context CaptureContext();

  struct ThreadLog;  ///< opaque per-thread event log (defined in trace.cc)

  /// Reconstructs all closed spans. Requires quiescence (see above).
  /// Records are grouped by thread and chronological within a thread.
  std::vector<TraceSpanRecord> Collect() const MOVD_EXCLUDES(mu_);

  /// Aggregates Collect() by span name, ordered by descending total time.
  std::vector<TracePhaseRow> AggregatePhases() const;

  /// Renders AggregatePhases() as a fixed-width table.
  void PrintPhaseTable(std::FILE* out) const;

  /// Chrome trace_event JSON (load in chrome://tracing or Perfetto).
  /// Every span is a matched "ph":"B"/"ph":"E" pair on its thread;
  /// counters ride in the E event's "args".
  std::string ChromeJson() const MOVD_EXCLUDES(mu_);

  /// Writes ChromeJson() to `path`.
  Status WriteChromeJson(const std::string& path) const;

 private:
  friend class TraceSpan;
  friend class TraceContextScope;

  struct Event;

  /// The calling thread's log, registering it on first use. Hot path is
  /// a thread-local cache hit keyed on `gen_` (globally unique per Trace,
  /// so a recycled Trace address can never alias a stale cache entry).
  ThreadLog* LogForThisThread() MOVD_EXCLUDES(mu_);

  const uint64_t gen_;  ///< globally unique trace id, never reused
  Stopwatch clock_;     ///< time base; read-only after construction
  std::atomic<uint64_t> next_span_id_{1};

  /// Guards the `logs_` vector itself (registration + collection). A
  /// ThreadLog's *contents* are owner-thread-only on the hot path and are
  /// read by collectors only at quiescence, so they are deliberately not
  /// pt_guarded_by: the happens-before edge is the pool join, not mu_.
  mutable Mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_ MOVD_GUARDED_BY(mu_);
};

/// RAII install/restore of the calling thread's ambient trace context.
class TraceContextScope {
 public:
  /// Installs `trace` (may be null = tracing off). If `trace` is already
  /// ambient the open-span chain is preserved, so nested pipeline entry
  /// points keep parenting instead of starting a fresh root.
  explicit TraceContextScope(Trace* trace);

  /// Re-installs a captured context on this thread (ParallelFor handoff).
  explicit TraceContextScope(const Trace::Context& ctx);

  ~TraceContextScope();

  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  Trace::Context saved_;
};

/// A scoped span recording into the ambient trace. `name` must have
/// static storage duration (string literals only — the trace keeps the
/// pointer). With no ambient trace every member function is a no-op.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Accumulates a typed counter on this span (e.g. cells clipped,
  /// Weiszfeld iterations, cache hits). `key` must be a string literal.
  void Counter(const char* key, int64_t delta);

 private:
  Trace* trace_;                     // null => disabled span, all no-ops
  Trace::ThreadLog* log_ = nullptr;  // this thread's log in trace_
  uint64_t id_ = 0;        // global span id (begin event carries it)
  uint64_t saved_span_ = 0;  // ambient open span to restore at end
  std::vector<std::pair<const char*, int64_t>> counters_;
};

#define MOVD_TRACE_CONCAT_INNER_(a, b) a##b
#define MOVD_TRACE_CONCAT_(a, b) MOVD_TRACE_CONCAT_INNER_(a, b)

/// Scoped span covering the rest of the enclosing block. Use a named
/// `TraceSpan` instead when you need to attach counters.
#define TRACE_SPAN(name) \
  ::movd::TraceSpan MOVD_TRACE_CONCAT_(movd_trace_span_, __COUNTER__)(name)

}  // namespace movd

#endif  // MOVD_TRACE_TRACE_H_
