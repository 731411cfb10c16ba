// Micro-benchmarks of the spatial substrates: Delaunay triangulation and
// Voronoi cell building.
//
// Harnessed (DESIGN.md §10): fixed internal op batches per repetition with
// bench::Keep; ns_per_op is Derived (never gated), structure outputs are
// Metrics (gated exactly). The heavyweight default sizes of the old
// google-benchmark suite are trimmed via --scale so the CI perf job can run
// this suite at small sizes.

#include "bench/bench_common.h"
#include "voronoi/delaunay.h"
#include "voronoi/voronoi.h"

namespace movd::bench {
namespace {

std::vector<Point> MakePoints(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  for (int64_t i = 0; i < n; ++i) {
    pts.push_back({rng.Uniform(0, 10000), rng.Uniform(0, 10000)});
  }
  return pts;
}

// Divides the base sizes by --scale (floor 16) and drops duplicates so an
// aggressive scale cannot produce two cases with the same name.
std::vector<int64_t> ScaledSizes(std::initializer_list<int64_t> base,
                                 int64_t scale) {
  std::vector<int64_t> out;
  for (const int64_t n : base) {
    const int64_t size = std::max<int64_t>(16, n / scale);
    if (out.empty() || out.back() != size) out.push_back(size);
  }
  return out;
}

}  // namespace

BENCH(micro_voronoi) {
  const int64_t scale = std::max<int64_t>(1, ctx.flags().GetInt("scale", 1));

  for (const int64_t size : ScaledSizes({1000, 10000, 50000}, scale)) {
    BenchCase& c = ctx.Case("delaunay_build/n=" + std::to_string(size))
                       .Param("n", size);
    const auto pts = MakePoints(size, 15);
    const int ops = size <= 1000 ? 20 : 2;
    size_t real_points = 0;
    const Summary& wall = ctx.Measure(c, [&] {
      for (int i = 0; i < ops; ++i) {
        const Delaunay dt(pts);
        real_points = dt.num_real_points();
        Keep(real_points);
      }
    });
    c.Metric("real_points", static_cast<double>(real_points));
    // Each undirected edge sits in both endpoints' rows.
    const size_t edges = Delaunay(pts).Adjacency().ids.size() / 2;
    c.Metric("delaunay_edges", static_cast<double>(edges));
    c.Derived("ns_per_op", wall.median / ops * 1e9);
  }

  for (const int64_t size : ScaledSizes({1000, 10000, 50000}, scale)) {
    BenchCase& c = ctx.Case("voronoi_build/n=" + std::to_string(size))
                       .Param("n", size);
    const auto pts = MakePoints(size, 16);
    const int ops = size <= 1000 ? 20 : 2;
    size_t cells = 0;
    const Summary& wall = ctx.Measure(c, [&] {
      for (int i = 0; i < ops; ++i) {
        const auto vd = VoronoiDiagram::Build(pts, kWorld);
        cells = vd.cells().size();
        Keep(cells);
      }
    });
    c.Metric("cells", static_cast<double>(cells));
    const VoronoiDiagram vd = VoronoiDiagram::Build(pts, kWorld);
    size_t cell_vertices = 0;
    for (const VoronoiCell& cell : vd.cells()) {
      cell_vertices += cell.region.VertexCount();
    }
    c.Metric("cell_vertices", static_cast<double>(cell_vertices));
    c.Derived("ns_per_op", wall.median / ops * 1e9);
  }
}

}  // namespace movd::bench

MOVD_BENCH_MAIN("micro_spatial")
