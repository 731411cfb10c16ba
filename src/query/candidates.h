#ifndef MOVD_QUERY_CANDIDATES_H_
#define MOVD_QUERY_CANDIDATES_H_

#include <vector>

#include "model/movd_model.h"
#include "model/query_model.h"
#include "util/exec_options.h"
#include "util/status.h"

namespace movd {

/// Shared execution knobs of the query-shape evaluators.
struct CandidateOptions {
  /// Relative error bound of each Fermat–Weber solve.
  double epsilon = 1e-3;
  ExecOptions exec;
};

/// The criteria vector of `group` at `location`: per member, WD through
/// the same Fermat–Weber decomposition the optimizer uses
/// (fw_weight * d + offset), in group order.
std::vector<double> CandidateCriteria(const MolqQuery& query,
                                      const std::vector<PoiRef>& group,
                                      const Point& location);

/// One SiteCandidate per OVR of `movd`, in OVR order: each OVR's
/// unconstrained Fermat–Weber optimum. Requires the overlay invariant of
/// model/movd_model.h — no two OVRs share a poi group — so the candidates
/// are the overlay's distinct combinations (MBRB false positives are
/// extra combinations, never repeats). No cost-bound pruning is applied:
/// unlike top-k, the downstream shapes (skyline, diversification) can
/// keep a candidate whose *aggregate* cost is poor, so every optimum must
/// be solved in full.
///
/// The per-candidate solves are independent, so they fan out on
/// options.exec.threads with each worker writing only its own slot —
/// results are bit-identical for every thread count. Returns kCancelled
/// (with `out` empty, never partial) when options.exec.cancel fires,
/// which is polled per OVR and every 256 Weiszfeld iterations.
StatusCode EnumerateCandidates(const MolqQuery& query, const Movd& movd,
                               const CandidateOptions& options,
                               std::vector<SiteCandidate>* out);

}  // namespace movd

#endif  // MOVD_QUERY_CANDIDATES_H_
