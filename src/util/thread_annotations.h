#ifndef MOVD_UTIL_THREAD_ANNOTATIONS_H_
#define MOVD_UTIL_THREAD_ANNOTATIONS_H_

/// Clang thread-safety annotation macros (DESIGN.md §12).
///
/// These wrap Clang's `-Wthread-safety` attributes so lock discipline is
/// checked at compile time: which mutex guards which field, which
/// functions require or acquire which capability. Under any other
/// compiler (GCC builds locally and in most CI jobs) every macro expands
/// to nothing, so the annotations are pure documentation there; the
/// dedicated Clang CI job builds with `-Wthread-safety -Werror` and fails
/// on any violation.
///
/// Conventions:
///   - Every mutex-protected field is annotated MOVD_GUARDED_BY(mu_).
///   - Private helpers that expect the lock held are annotated
///     MOVD_REQUIRES(mu_) and named *Locked.
///   - Lock-free state (atomics: CancelToken, ServeMetrics,
///     LatencyHistogram, the shared cost bound) carries no capability —
///     its safety argument lives in comments and TSan, not here.
///
/// The macro set mirrors the attribute list in the Clang documentation
/// (and abseil's thread_annotations.h); only the spellings the codebase
/// uses are defined.

#if defined(__clang__) && (!defined(SWIG))
#define MOVD_THREAD_ANNOTATION_ATTRIBUTE_(x) __attribute__((x))
#else
#define MOVD_THREAD_ANNOTATION_ATTRIBUTE_(x)  // no-op
#endif

/// Declares a class as a lockable capability, e.g.
/// `class MOVD_CAPABILITY("mutex") Mutex { ... };`.
#define MOVD_CAPABILITY(x) MOVD_THREAD_ANNOTATION_ATTRIBUTE_(capability(x))

/// Declares an RAII class that acquires a capability at construction and
/// releases it at destruction (MutexLock).
#define MOVD_SCOPED_CAPABILITY \
  MOVD_THREAD_ANNOTATION_ATTRIBUTE_(scoped_lockable)

/// A data member readable/writable only with the given capability held.
#define MOVD_GUARDED_BY(x) MOVD_THREAD_ANNOTATION_ATTRIBUTE_(guarded_by(x))

/// A pointer member whose *pointee* is protected by the capability (the
/// pointer itself may be read freely).
#define MOVD_PT_GUARDED_BY(x) \
  MOVD_THREAD_ANNOTATION_ATTRIBUTE_(pt_guarded_by(x))

/// The function must be called with the capability held (and does not
/// release it).
#define MOVD_REQUIRES(...) \
  MOVD_THREAD_ANNOTATION_ATTRIBUTE_(requires_capability(__VA_ARGS__))

/// The function must be called with the capability NOT held (it acquires
/// it itself, or would deadlock).
#define MOVD_EXCLUDES(...) \
  MOVD_THREAD_ANNOTATION_ATTRIBUTE_(locks_excluded(__VA_ARGS__))

/// The function acquires the capability and holds it on return.
#define MOVD_ACQUIRE(...) \
  MOVD_THREAD_ANNOTATION_ATTRIBUTE_(acquire_capability(__VA_ARGS__))

/// The function releases the capability.
#define MOVD_RELEASE(...) \
  MOVD_THREAD_ANNOTATION_ATTRIBUTE_(release_capability(__VA_ARGS__))

/// Returns a reference to the named capability (accessor functions).
#define MOVD_RETURN_CAPABILITY(x) \
  MOVD_THREAD_ANNOTATION_ATTRIBUTE_(lock_returned(x))

/// Escape hatch: turns the analysis off for one function. Every use needs
/// a comment saying why the analysis cannot see the invariant.
#define MOVD_NO_THREAD_SAFETY_ANALYSIS \
  MOVD_THREAD_ANNOTATION_ATTRIBUTE_(no_thread_safety_analysis)

#endif  // MOVD_UTIL_THREAD_ANNOTATIONS_H_
