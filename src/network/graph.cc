#include "network/graph.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "util/check.h"
#include "util/rng.h"
#include "voronoi/delaunay.h"

namespace movd {

RoadNetwork::RoadNetwork(std::vector<Point> vertices,
                         const std::vector<Edge>& edges)
    : vertices_(std::move(vertices)), adjacency_(vertices_.size()) {
  for (const Edge& e : edges) {
    MOVD_CHECK(e.from >= 0 &&
               e.from < static_cast<int32_t>(vertices_.size()));
    MOVD_CHECK(e.to >= 0 && e.to < static_cast<int32_t>(vertices_.size()));
    if (e.from == e.to) continue;
    const double length =
        e.length > 0.0 ? e.length
                       : Distance(vertices_[e.from], vertices_[e.to]);
    adjacency_[e.from].push_back({e.to, length});
    adjacency_[e.to].push_back({e.from, length});
    ++edge_count_;
  }
}

int32_t RoadNetwork::NearestVertex(const Point& p) const {
  MOVD_CHECK(!vertices_.empty());
  int32_t best = 0;
  double best_d2 = Distance2(p, vertices_[0]);
  for (size_t i = 1; i < vertices_.size(); ++i) {
    const double d2 = Distance2(p, vertices_[i]);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = static_cast<int32_t>(i);
    }
  }
  return best;
}

bool RoadNetwork::IsConnected() const {
  if (vertices_.empty()) return true;
  std::vector<bool> seen(vertices_.size(), false);
  std::vector<int32_t> stack = {0};
  seen[0] = true;
  size_t count = 1;
  while (!stack.empty()) {
    const int32_t v = stack.back();
    stack.pop_back();
    for (const Arc& arc : adjacency_[v]) {
      if (!seen[arc.to]) {
        seen[arc.to] = true;
        ++count;
        stack.push_back(arc.to);
      }
    }
  }
  return count == vertices_.size();
}

RoadNetwork RandomRoadNetwork(size_t num_vertices, const Rect& bounds,
                              double keep_fraction, uint64_t seed) {
  MOVD_CHECK(num_vertices >= 2);
  MOVD_CHECK(keep_fraction > 0.0 && keep_fraction <= 1.0);
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(num_vertices);
  for (size_t i = 0; i < num_vertices; ++i) {
    pts.push_back({rng.Uniform(bounds.min_x, bounds.max_x),
                   rng.Uniform(bounds.min_y, bounds.max_y)});
  }
  const Delaunay dt(pts);
  // Delaunay may deduplicate; use its point set.
  std::vector<Point> vertices(dt.points().begin(),
                              dt.points().begin() + dt.num_real_points());

  // The Delaunay edges between real points, each once as (v, u) with
  // v < u, in ascending order: the table's rows are ascending.
  std::vector<std::pair<int32_t, int32_t>> all;
  const NeighborTable table = dt.Adjacency();
  all.reserve(table.ids.size() / 2);
  for (int32_t v = 0; v < static_cast<int32_t>(table.size()); ++v) {
    for (const int32_t u : table.of(v)) {
      if (v < u) all.push_back({v, u});
    }
  }

  // Keep a connected skeleton (randomized spanning tree via union-find over
  // shuffled edges), then add the requested fraction of the remainder.
  for (size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng.NextBelow(i)]);
  }
  std::vector<int32_t> parent(vertices.size());
  for (size_t i = 0; i < parent.size(); ++i) {
    parent[i] = static_cast<int32_t>(i);
  }
  const auto find = [&](int32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  std::vector<RoadNetwork::Edge> kept;
  std::vector<std::pair<int32_t, int32_t>> extras;
  for (const auto& [a, b] : all) {
    const int32_t ra = find(a), rb = find(b);
    if (ra != rb) {
      parent[ra] = rb;
      kept.push_back({a, b, 0.0});
    } else {
      extras.push_back({a, b});
    }
  }
  const size_t want_extra = static_cast<size_t>(
      keep_fraction * static_cast<double>(extras.size()));
  for (size_t i = 0; i < want_extra; ++i) {
    kept.push_back({extras[i].first, extras[i].second, 0.0});
  }
  return RoadNetwork(std::move(vertices), kept);
}

std::vector<double> ShortestDistances(const RoadNetwork& network,
                                      int32_t source) {
  return NearestSourceDistances(network, {source});
}

std::vector<double> NearestSourceDistances(
    const RoadNetwork& network, const std::vector<int32_t>& sources) {
  std::vector<double> dist(network.num_vertices(),
                           RoadNetwork::kUnreachable);
  using Item = std::pair<double, int32_t>;  // (distance, vertex)
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  for (const int32_t s : sources) {
    MOVD_CHECK(s >= 0 && s < static_cast<int32_t>(network.num_vertices()));
    if (dist[s] > 0.0) {
      dist[s] = 0.0;
      heap.push({0.0, s});
    }
  }
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[v]) continue;  // stale entry
    for (const RoadNetwork::Arc& arc : network.Neighbors(v)) {
      const double nd = d + arc.length;
      if (nd < dist[arc.to]) {
        dist[arc.to] = nd;
        heap.push({nd, arc.to});
      }
    }
  }
  return dist;
}

}  // namespace movd
