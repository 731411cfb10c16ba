#include "model/update_model.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace movd {
namespace {

// Raw bit pattern of a double; equality over these is exact byte
// equality, which is the contract here (a tolerance would make "patched
// == rebuilt" unfalsifiable).
uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

bool PointBitIdentical(const Point& a, const Point& b) {
  return DoubleBits(a.x) == DoubleBits(b.x) &&
         DoubleBits(a.y) == DoubleBits(b.y);
}

bool RectBitIdentical(const Rect& a, const Rect& b) {
  return DoubleBits(a.min_x) == DoubleBits(b.min_x) &&
         DoubleBits(a.min_y) == DoubleBits(b.min_y) &&
         DoubleBits(a.max_x) == DoubleBits(b.max_x) &&
         DoubleBits(a.max_y) == DoubleBits(b.max_y);
}

}  // namespace

bool CanonicalOvrLess(const Ovr& a, const Ovr& b) {
  return std::lexicographical_compare(a.pois.begin(), a.pois.end(),
                                      b.pois.begin(), b.pois.end());
}

bool OvrBitIdentical(const Ovr& a, const Ovr& b) {
  return a.pois == b.pois && OvrGeometryBitIdentical(a, b);
}

bool OvrGeometryBitIdentical(const Ovr& a, const Ovr& b) {
  if (!RectBitIdentical(a.mbr, b.mbr)) return false;
  const auto& pa = a.region.pieces();
  const auto& pb = b.region.pieces();
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    const auto& va = pa[i].vertices();
    const auto& vb = pb[i].vertices();
    if (va.size() != vb.size()) return false;
    for (size_t j = 0; j < va.size(); ++j) {
      if (!PointBitIdentical(va[j], vb[j])) return false;
    }
  }
  return true;
}

bool MovdBitIdentical(const Movd& a, const Movd& b) {
  if (a.ovrs.size() != b.ovrs.size()) return false;
  for (size_t i = 0; i < a.ovrs.size(); ++i) {
    if (!OvrBitIdentical(a.ovrs[i], b.ovrs[i])) return false;
  }
  return true;
}

}  // namespace movd
