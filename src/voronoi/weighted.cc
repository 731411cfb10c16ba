#include "voronoi/weighted.h"

#include "util/check.h"

namespace movd {

double WeightedSiteDistance(const Point& p, const WeightedSite& site) {
  return site.multiplier * Distance(p, site.location) + site.offset;
}

int EffectiveWeightedResolution(int resolution) {
  MOVD_CHECK_MSG(resolution > 0, "the dominance lattice needs >= 1 cell");
  int r = 1;
  while (r < resolution && r < (1 << 14)) r <<= 1;
  return r;
}

}  // namespace movd
