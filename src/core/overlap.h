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
  uint64_t events = 0;               ///< start/end events processed
  uint64_t candidate_pairs = 0;      ///< x-range hits tested (Alg. 3 line 4)
  uint64_t pruned_pairs = 0;         ///< pairs the CombinationBound skipped
  uint64_t region_intersections = 0; ///< real region ∩ computed (RRB only)
  uint64_t output_ovrs = 0;          ///< OVRs appended to the result
};

/// The overlap operation ⊕ (paper Eq. 22, Algorithms 2-4): pairs the OVRs
/// of the two MOVDs that a top-down plane sweep would find simultaneously
/// active with overlapping x-ranges, then intersects each pair with the
/// selected boundary handler:
///  - BoundaryMode::kRealRegion (RRB, Algorithm 3): real region
///    intersection; empty intersections are discarded.
///  - BoundaryMode::kMbr (MBRB, Algorithm 4): MBR intersection only; every
///    x/y-range hit is emitted (false positives possible).
/// Both operands must themselves carry the fields the mode needs. Each
/// operand pair yields at most one OVR, so when a and b cover disjoint
/// object sets and each holds a group once, so does the output — the
/// overlay invariant of model/movd_model.h. Operands sharing a set (A ⊕ A)
/// can repeat groups.
///
/// Runs as one parallel pass. Number the OVRs g (a's i is g = i, b's j is
/// g = |a| + j); the *finders* are all OVRs in start order, by descending
/// mbr.max_y, ties by ascending g. The partners of finder f are the OVRs p
/// of the other operand that start before f, are still active when f
/// starts (p.min_y <= f.max_y) and overlap f in x (closed ranges); a
/// per-operand grid over the MBRs finds them. Output: for each finder in
/// start order, its partners by (p.min_x, start order), each pair
/// intersected as (f, p). That is the sweep's visiting order with the
/// finder's region clipped first. Fixed chunks of 64 consecutive finders
/// run on `threads` threads (0 = one per hardware thread) and the chunk
/// outputs are concatenated in chunk order, so the result and every
/// OverlapStats counter are bit-identical for every thread count; an
/// uncancelled step counts events == 2 * (|a| + |b|).
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
/// Inputs over distinct layers (every pipeline fold) give an overlay with
/// one OVR per poi group.
Movd OverlapAll(const std::vector<Movd>& inputs, BoundaryMode mode,
                OverlapStats* stats = nullptr,
                const CancelToken* cancel = nullptr, int threads = 1,
                const CombinationBound* bound = nullptr);

/// The poi list of an overlap: the union of two sorted poi lists with
/// duplicates collapsed (Algorithm 3 line 7 / Algorithm 4 line 6).
std::vector<PoiRef> MergePois(const std::vector<PoiRef>& a,
                              const std::vector<PoiRef>& b);

/// Reference implementation: the nested-loop O(n*m) overlap with the same
/// pairs, in a-major order with a's region clipped first. Tests sort its
/// candidate set into Overlap's order to check Overlap bit for bit.
Movd OverlapBruteForce(const Movd& a, const Movd& b, BoundaryMode mode);

/// The per-pair boundary handler shared by Overlap and the brute force:
/// intersects one candidate pair under `mode` (Algorithm 3 line 5 vs
/// Algorithm 4 line 5) and merges the poi lists. Returns false when the RRB
/// intersection is empty.
bool IntersectOvrPair(const Ovr& x, const Ovr& y, BoundaryMode mode,
                      Ovr* out);

}  // namespace movd

#endif  // MOVD_CORE_OVERLAP_H_
