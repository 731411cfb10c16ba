#ifndef MOVD_CORE_OVERLAP_H_
#define MOVD_CORE_OVERLAP_H_

#include <cstdint>

#include "model/movd_model.h"
#include "util/cancel.h"

namespace movd {

class CombinationBound;

/// Counters exposed by the overlap operation, matching the quantities the
/// paper's Figs. 11-14 report.
struct OverlapStats {
  uint64_t candidate_pairs = 0;      ///< MBR hits tested (Alg. 3 line 4)
  uint64_t pruned_pairs = 0;         ///< pairs the CombinationBound skipped
  uint64_t region_intersections = 0; ///< real region ∩ computed (RRB only)
  uint64_t output_ovrs = 0;          ///< OVRs appended to the result
};

/// The overlap operation ⊕ (paper Eq. 22, Algorithms 2-4): pairs every OVR
/// of a with every OVR of b whose closed MBR meets its own (the pair set
/// the paper's top-down plane sweep finds), then intersects each pair with
/// the selected boundary handler:
///  - BoundaryMode::kRealRegion (RRB, Algorithm 3): real region
///    intersection; empty intersections are discarded.
///  - BoundaryMode::kMbr (MBRB, Algorithm 4): MBR intersection only; every
///    MBR hit is emitted (false positives possible).
/// Both operands must themselves carry the fields the mode needs. Each
/// operand pair yields at most one OVR, so when a and b cover disjoint
/// object sets and each holds a group once, so does the output — the
/// overlay invariant of model/movd_model.h. Operands sharing a set (A ⊕ A)
/// can repeat groups.
///
/// Output order is a-major: for each a OVR i in index order, its partners
/// j in ascending order. So when a and b are each in canonical order
/// (model/update_model.h) and every set of a precedes every set of b, as
/// in a fold over layers in ascending order, the output is in canonical
/// order too: a basic MOVD is in object order, and every OverlapAll of
/// basics comes out strictly canonical with no sort. Each pair is clipped
/// in an operand order fixed by the pair alone: as (b's, a's) when
/// b.mbr.max_y <= a.mbr.max_y, else as (a's, b's) (Region::Intersect clips
/// its first operand by the second, so this decides the output bits).
///
/// Runs as one parallel pass. The finders are a's OVRs; each probes one
/// partner index, a grid over b's MBRs, across every cell its MBR covers.
/// Fixed chunks of 64 consecutive finders run on `threads` threads (0 =
/// one per hardware thread) and the chunk outputs are concatenated in
/// chunk order, so the result and every OverlapStats counter are
/// bit-identical for every thread count.
///
/// `cancel` (serving deadlines): polled once per finder chunk and every
/// 256 pairs within one. A fired token yields a truncated or empty MOVD —
/// callers that pass a token MUST re-check it afterwards and discard the
/// result when it fired, as SolveMolq does.
///
/// `bound` (combination pruning, core/pruned_overlap.h): when set, every
/// pair whose merged combination the bound prunes is skipped before it is
/// clipped, in both modes. Skipped pairs count in `pruned_pairs`, not in
/// `region_intersections`, so an uncancelled RRB step has candidate_pairs
/// == region_intersections + pruned_pairs. The output is the unpruned
/// output with the pruned pairs' OVRs left out, in the same order.
Movd Overlap(const Movd& a, const Movd& b, BoundaryMode mode,
             OverlapStats* stats = nullptr,
             const CancelToken* cancel = nullptr, int threads = 1,
             const CombinationBound* bound = nullptr);

/// Sequential overlap Σ⊕ (paper Eq. 27): folds `inputs` left-to-right,
/// each step an Overlap on `threads` threads with `bound`. MOVD(∅) is the
/// fold's unit (Property 12), not a step: the first step overlaps
/// inputs[0] with inputs[1], and one input is returned as it is. Every
/// overlay in the repo is this fold (BuildMolqOverlay, serve, the overlay
/// patcher). Stats accumulate across all steps. `cancel` as in Overlap: a
/// fired token yields a truncated or empty result the caller must discard.
/// Canonical inputs over distinct layers in ascending order (every
/// pipeline fold of basic MOVDs) give an overlay with one OVR per poi
/// group, in strictly ascending canonical order.
Movd OverlapAll(const std::vector<Movd>& inputs, BoundaryMode mode,
                OverlapStats* stats = nullptr,
                const CancelToken* cancel = nullptr, int threads = 1,
                const CombinationBound* bound = nullptr);

/// The poi list of an overlap: the union of two sorted poi lists with
/// duplicates collapsed (Algorithm 3 line 7 / Algorithm 4 line 6).
std::vector<PoiRef> MergePois(const std::vector<PoiRef>& a,
                              const std::vector<PoiRef>& b);

/// Reference implementation: the nested-loop O(n*m) overlap over the same
/// pairs, in the same a-major order and operand order as Overlap without a
/// bound, so tests check Overlap against it bit for bit.
Movd OverlapBruteForce(const Movd& a, const Movd& b, BoundaryMode mode);

/// The per-pair boundary handler shared by Overlap and the brute force:
/// intersects one candidate pair under `mode` (Algorithm 3 line 5 vs
/// Algorithm 4 line 5) and merges the poi lists. Returns false when the RRB
/// intersection is empty.
bool IntersectOvrPair(const Ovr& x, const Ovr& y, BoundaryMode mode,
                      Ovr* out);

}  // namespace movd

#endif  // MOVD_CORE_OVERLAP_H_
