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

/// The canonical OVR order: lexicographic over the poi vectors. An
/// overlay holds each object combination once and a basic MOVD one OVR per
/// object, so an artifact in canonical order is strictly ascending. A
/// basic MOVD is in object order, and Overlap emits its pairs a-major, so
/// every fold over layers in ascending order (SolveMolq's, serve's, the
/// overlay patcher's re-fold) comes out in this order with no sort; that
/// is what lets the patcher merge re-folded OVRs into kept ones and
/// compare patched and rebuilt artifacts byte for byte. Answers do not
/// depend on it: the optimizer, top-k and every query shape break ties by
/// (value, poi group) under GroupBefore (model/query_model.h), never by
/// input position.
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
/// pairwise in order.
bool MovdBitIdentical(const Movd& a, const Movd& b);

}  // namespace movd

#endif  // MOVD_MODEL_UPDATE_MODEL_H_
