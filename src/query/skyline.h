#ifndef MOVD_QUERY_SKYLINE_H_
#define MOVD_QUERY_SKYLINE_H_

#include "model/movd_model.h"
#include "model/query_model.h"
#include "query/candidates.h"

namespace movd {

/// The multi-criteria skyline (DESIGN.md §13.1): every candidate site not
/// Pareto-dominated on its per-set criteria vector. No aggregate weight
/// function is applied — a site that is best for schools but mediocre
/// overall survives as long as nothing beats it on *all* criteria at once.
///
/// The pruning pass is a sort-filter skyline: candidates are sorted by
/// SkylineOrderBefore (monotone with respect to dominance, see its doc
/// comment), then each is tested only against already-retained skyline
/// members — O(n * |skyline|) dominance tests instead of the O(n^2)
/// all-pairs scan of the brute-force reference. The output is in the same
/// order, deterministic for every thread count. MBRB overlays are legal
/// inputs: their false positives are extra combinations, each still held
/// by one OVR, so each is one candidate.
SkylineResult SkylineFromMovd(const MolqQuery& query, const Movd& movd,
                              const CandidateOptions& options = {});

/// O(n^2) all-pairs reference over the same candidate enumeration: keeps a
/// candidate iff no other candidate dominates it, output sorted by
/// SkylineOrderBefore. Tests assert exact agreement with SkylineFromMovd.
SkylineResult SkylineBruteForce(const MolqQuery& query, const Movd& movd,
                                const CandidateOptions& options = {});

}  // namespace movd

#endif  // MOVD_QUERY_SKYLINE_H_
