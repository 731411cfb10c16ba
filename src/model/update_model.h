#ifndef MOVD_MODEL_UPDATE_MODEL_H_
#define MOVD_MODEL_UPDATE_MODEL_H_

#include <cstdint>

#include "geom/point.h"
#include "model/movd_model.h"

namespace movd {

/// The two live dataset mutations the serve stack supports (DESIGN.md
/// §14): add a facility to one layer, or remove one. Both publish a new
/// immutable dataset snapshot version.
enum class MutationKind : uint8_t {
  kInsert,  ///< append an object (default weights) to the layer
  kDelete,  ///< remove the first object at exactly `location`
};

/// One requested site mutation, as parsed from the serve protocol.
struct SiteMutation {
  MutationKind kind = MutationKind::kInsert;
  int32_t layer = -1;  ///< index into MolqQuery::sets
  Point location;
};

/// Sorts `movd->ovrs` into the canonical order: lexicographically by the
/// poi vector (which is unique per OVR — an object combination appears at
/// most once in an overlay, and a basic MOVD has one OVR per site).
///
/// The sweep-based overlap emits OVRs in an order that depends on its
/// event history, which an incremental patch cannot (and should not)
/// reproduce. The serve stack therefore canonicalises every overlay it
/// caches — full builds and patches alike — so "patched" and "rebuilt
/// from scratch" artifacts are comparable byte for byte. Downstream
/// consumers are order-independent: the optimizer, top-k and every query
/// shape break ties by (value, poi group) under GroupBefore
/// (model/query_model.h), never by input position.
void CanonicalizeOvrOrder(Movd* movd);

/// The canonical order's comparator: lexicographic over the poi vectors.
bool CanonicalOvrLess(const Ovr& a, const Ovr& b);

/// Exact byte equality of two OVRs: identical poi lists, MBRs, and region
/// piece/vertex structure, with coordinates compared as raw double bits
/// (so -0.0 != +0.0 and NaNs compare by payload — "same bytes", not
/// "same value"). This is the equality the patched-vs-rebuilt audit
/// validator (src/audit/audit_update.h) certifies.
bool OvrBitIdentical(const Ovr& a, const Ovr& b);

/// OvrBitIdentical minus the poi comparison: identical MBR and region
/// bytes only. The overlay patcher uses this to match a layer's cells
/// across a deletion, where the surviving cells keep their geometry but
/// their object indices shift down by one.
bool OvrGeometryBitIdentical(const Ovr& a, const Ovr& b);

/// Exact byte equality of two MOVDs: same OVR count and OvrBitIdentical
/// pairwise in order. Compare canonicalised artifacts (or two basic MOVDs,
/// whose site order is already canonical).
bool MovdBitIdentical(const Movd& a, const Movd& b);

}  // namespace movd

#endif  // MOVD_MODEL_UPDATE_MODEL_H_
