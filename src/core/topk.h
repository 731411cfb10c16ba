#ifndef MOVD_CORE_TOPK_H_
#define MOVD_CORE_TOPK_H_

#include "core/molq.h"

namespace movd {

/// Top-k extension of MOLQ (beyond the paper): the k best locally-optimal
/// locations over *distinct* object combinations, ascending by cost. A
/// planner rarely wants a single point; the runners-up are the natural
/// alternatives. Combinations are distinct because the overlay holds each
/// one in a single OVR (model/movd_model.h), so one OVR is one answer.
///
/// Builds the overlay with BuildMolqOverlay (RRB or MBRB per
/// `options.algorithm`; kSsc is rejected), unpruned because ranks beyond
/// the first need the combinations SolveMolq's pruning drops, so stats and
/// audit seams are SolveMolq's. Keeps the k best Fermat–Weber optima in
/// MolqResult::ranked (location/cost/group mirror ranked[0]).
///
/// Edge cases (deterministic by contract):
///  - k exceeding the number of distinct object combinations returns every
///    combination, ascending by cost — ranked.size() < k, never an error.
///  - Cost ties (including all candidates tied) rank in lexicographic
///    group order, the repo-wide (set, object) tie rule; the result is
///    identical for every thread count.
///
/// MolqResult::status is kInvalidArgument for invalid weights
/// (CheckWeightTerms) and kCancelled when options.exec.cancel fired
/// mid-run; either way `ranked` is empty (never a partial ranking).
MolqResult SolveMolqTopK(const MolqQuery& query, const Rect& search_space,
                         size_t k, const MolqOptions& options = {});

/// The Optimizer half of SolveMolqTopK, over an already-built MOVD: the k
/// best locally-optimal locations, one per OVR, ascending by (cost,
/// GroupBefore) — ScanBestK (fermat/batch.h) with the OVRs as problems,
/// whose bound is the k-th best cost so far. `exec.threads` fans the scan
/// out; MolqResult::stats.optimizer holds its counters. This is the entry
/// point the serving engine (src/serve) and the what-if sweep use to rank
/// answers from a cached overlay without rebuilding the pipeline. Requires
/// the overlay invariant of model/movd_model.h (no two OVRs share a poi
/// group; a repeated group would be ranked twice) and OVR poi refs that
/// index into `query`. The answers' `criteria` stay empty. Cancellation
/// semantics as above; the token is also polled every 256 Weiszfeld
/// iterations.
MolqResult TopKFromMovd(const MolqQuery& query, const Movd& movd, size_t k,
                        const MolqOptions& options = {});

}  // namespace movd

#endif  // MOVD_CORE_TOPK_H_
