#include "data/generate.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace movd {
namespace {

Point ClampToBounds(const Rect& b, Point p) {
  p.x = std::clamp(p.x, b.min_x, b.max_x);
  p.y = std::clamp(p.y, b.min_y, b.max_y);
  return p;
}

std::vector<Point> GenerateUniform(const GeneratorConfig& c, Rng* rng) {
  std::vector<Point> out;
  out.reserve(c.count);
  for (size_t i = 0; i < c.count; ++i) {
    out.push_back({rng->Uniform(c.bounds.min_x, c.bounds.max_x),
                   rng->Uniform(c.bounds.min_y, c.bounds.max_y)});
  }
  return out;
}

std::vector<Point> GenerateClusters(const GeneratorConfig& c, Rng* rng) {
  MOVD_CHECK(c.clusters > 0);
  const double diag = std::hypot(c.bounds.Width(), c.bounds.Height());
  const double sigma = diag * c.spread_fraction;
  std::vector<Point> centers;
  centers.reserve(static_cast<size_t>(c.clusters));
  for (int i = 0; i < c.clusters; ++i) {
    centers.push_back({rng->Uniform(c.bounds.min_x, c.bounds.max_x),
                       rng->Uniform(c.bounds.min_y, c.bounds.max_y)});
  }
  std::vector<Point> out;
  out.reserve(c.count);
  for (size_t i = 0; i < c.count; ++i) {
    const Point& center = centers[rng->NextBelow(centers.size())];
    out.push_back(ClampToBounds(
        c.bounds, {center.x + sigma * rng->NextGaussian(),
                   center.y + sigma * rng->NextGaussian()}));
  }
  return out;
}

std::vector<Point> GenerateCorridors(const GeneratorConfig& c, Rng* rng) {
  MOVD_CHECK(c.clusters > 0);
  const double diag = std::hypot(c.bounds.Width(), c.bounds.Height());
  const double sigma = diag * c.spread_fraction * 0.5;
  // Each corridor is a random segment across the bounds; points are placed
  // uniformly along it with Gaussian lateral displacement.
  struct Segment {
    Point a, b;
  };
  std::vector<Segment> corridors;
  corridors.reserve(static_cast<size_t>(c.clusters));
  for (int i = 0; i < c.clusters; ++i) {
    corridors.push_back({{rng->Uniform(c.bounds.min_x, c.bounds.max_x),
                          rng->Uniform(c.bounds.min_y, c.bounds.max_y)},
                         {rng->Uniform(c.bounds.min_x, c.bounds.max_x),
                          rng->Uniform(c.bounds.min_y, c.bounds.max_y)}});
  }
  std::vector<Point> out;
  out.reserve(c.count);
  for (size_t i = 0; i < c.count; ++i) {
    const Segment& s = corridors[rng->NextBelow(corridors.size())];
    const double t = rng->NextDouble();
    const Point on_line = s.a + (s.b - s.a) * t;
    out.push_back(ClampToBounds(
        c.bounds, {on_line.x + sigma * rng->NextGaussian(),
                   on_line.y + sigma * rng->NextGaussian()}));
  }
  return out;
}

}  // namespace

std::vector<Point> GeneratePoints(const GeneratorConfig& config) {
  Rng rng(config.seed);
  switch (config.distribution) {
    case Distribution::kUniform:
      return GenerateUniform(config, &rng);
    case Distribution::kGaussianClusters:
      return GenerateClusters(config, &rng);
    case Distribution::kCorridor:
      return GenerateCorridors(config, &rng);
  }
  MOVD_CHECK(false);
  return {};
}

const std::vector<PoiClassSpec>& GeoNamesLikeCatalog() {
  static const std::vector<PoiClassSpec>* kCatalog =
      new std::vector<PoiClassSpec>{
          {"STM", 230762, Distribution::kCorridor, 48},
          {"CH", 225553, Distribution::kGaussianClusters, 64},
          {"SCH", 200996, Distribution::kGaussianClusters, 64},
          {"PPL", 166788, Distribution::kGaussianClusters, 32},
          {"BLDG", 110289, Distribution::kUniform, 0},
      };
  return *kCatalog;
}

std::vector<Point> SamplePoiClass(const std::string& name, size_t count,
                                  const Rect& bounds, uint64_t seed) {
  const PoiClassSpec* spec = nullptr;
  for (const PoiClassSpec& s : GeoNamesLikeCatalog()) {
    if (s.name == name) {
      spec = &s;
      break;
    }
  }
  MOVD_CHECK(spec != nullptr);
  GeneratorConfig config;
  config.distribution = spec->distribution;
  config.count = count;
  config.bounds = bounds;
  config.clusters = std::max(1, spec->clusters);
  config.seed = seed ^ Fnv1a(name);
  return GeneratePoints(config);
}

}  // namespace movd
