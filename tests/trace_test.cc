#include "trace/trace.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/molq.h"
#include "core/overlap.h"
#include "core/pruned_overlap.h"
#include "core/topk.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "voronoi/delaunay.h"

namespace movd {
namespace {

size_t CountOccurrences(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

const TraceSpanRecord* FindByName(const std::vector<TraceSpanRecord>& records,
                                  const std::string& name) {
  for (const TraceSpanRecord& r : records) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

TEST(TraceTest, NoAmbientTraceMeansSpansAreNoOps) {
  ASSERT_EQ(Trace::ThreadCurrent(), nullptr);
  {
    TRACE_SPAN("ignored");
    TraceSpan counted("also_ignored");
    counted.Counter("items", 7);
    EXPECT_EQ(Trace::ThreadCurrent(), nullptr);
  }
  const Trace::Context ctx = Trace::CaptureContext();
  EXPECT_EQ(ctx.trace, nullptr);
  EXPECT_EQ(ctx.span, 0u);
}

TEST(TraceTest, ScopeInstallsAndRestoresAmbientTrace) {
  Trace trace;
  {
    TraceContextScope scope(&trace);
    EXPECT_EQ(Trace::ThreadCurrent(), &trace);
    {
      Trace inner;
      TraceContextScope nested(&inner);
      EXPECT_EQ(Trace::ThreadCurrent(), &inner);
    }
    EXPECT_EQ(Trace::ThreadCurrent(), &trace);
  }
  EXPECT_EQ(Trace::ThreadCurrent(), nullptr);
}

TEST(TraceTest, NestedSpansRecordParentAndDepth) {
  Trace trace;
  {
    TraceContextScope scope(&trace);
    TRACE_SPAN("root");
    {
      TRACE_SPAN("child");
      { TRACE_SPAN("grandchild"); }
    }
    { TRACE_SPAN("second_child"); }
  }
  const std::vector<TraceSpanRecord> records = trace.Collect();
  ASSERT_EQ(records.size(), 4u);

  const TraceSpanRecord* root = FindByName(records, "root");
  const TraceSpanRecord* child = FindByName(records, "child");
  const TraceSpanRecord* grandchild = FindByName(records, "grandchild");
  const TraceSpanRecord* second = FindByName(records, "second_child");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);
  ASSERT_NE(grandchild, nullptr);
  ASSERT_NE(second, nullptr);

  EXPECT_EQ(root->parent, -1);
  EXPECT_EQ(root->depth, 0);
  EXPECT_EQ(&records[child->parent], root);
  EXPECT_EQ(child->depth, 1);
  EXPECT_EQ(&records[grandchild->parent], child);
  EXPECT_EQ(grandchild->depth, 2);
  EXPECT_EQ(&records[second->parent], root);
  EXPECT_EQ(second->depth, 1);

  // A child is contained in its parent's interval.
  EXPECT_GE(child->start_ns, root->start_ns);
  EXPECT_LE(child->start_ns + child->dur_ns, root->start_ns + root->dur_ns);
}

TEST(TraceTest, ParallelForBodiesParentToTheCallSiteSpan) {
  constexpr size_t kIterations = 32;
  Trace trace;
  {
    TraceContextScope scope(&trace);
    TRACE_SPAN("parallel_region");
    const Trace::Context ctx = Trace::CaptureContext();
    ParallelFor(4, kIterations, [&](size_t) {
      TraceContextScope handoff(ctx);
      TRACE_SPAN("body");
    });
  }
  const std::vector<TraceSpanRecord> records = trace.Collect();
  ASSERT_EQ(records.size(), kIterations + 1);

  const TraceSpanRecord* region = FindByName(records, "parallel_region");
  ASSERT_NE(region, nullptr);
  EXPECT_EQ(region->parent, -1);
  EXPECT_EQ(region->tid, 0);

  size_t bodies = 0;
  for (const TraceSpanRecord& r : records) {
    if (r.name != "body") continue;
    ++bodies;
    // Cross-thread parenting: every body span hangs off the span that was
    // open at the ParallelFor call site, whatever thread it ran on.
    ASSERT_GE(r.parent, 0);
    EXPECT_EQ(&records[r.parent], region);
    EXPECT_EQ(r.depth, 1);
    EXPECT_GE(r.tid, 0);
  }
  EXPECT_EQ(bodies, kIterations);
}

TEST(TraceTest, CountersAccumulatePerSpanAndAggregateByPhase) {
  Trace trace;
  {
    TraceContextScope scope(&trace);
    for (int i = 0; i < 3; ++i) {
      TraceSpan span("optimize_cell");
      span.Counter("iterations", 10);
      span.Counter("iterations", 2);
      span.Counter("pruned", 1);
    }
  }
  const std::vector<TraceSpanRecord> records = trace.Collect();
  ASSERT_EQ(records.size(), 3u);
  for (const TraceSpanRecord& r : records) {
    ASSERT_EQ(r.counters.size(), 2u);  // same-key deltas fold into one entry
    EXPECT_EQ(r.counters[0].first, "iterations");
    EXPECT_EQ(r.counters[0].second, 12);
    EXPECT_EQ(r.counters[1].first, "pruned");
    EXPECT_EQ(r.counters[1].second, 1);
  }

  const std::vector<TracePhaseRow> phases = trace.AggregatePhases();
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].name, "optimize_cell");
  EXPECT_EQ(phases[0].count, 3);
  EXPECT_GE(phases[0].total_ns, phases[0].self_ns);
  ASSERT_EQ(phases[0].counters.size(), 2u);
  EXPECT_EQ(phases[0].counters[0].second, 36);  // 3 spans x 12
  EXPECT_EQ(phases[0].counters[1].second, 3);
}

TEST(TraceTest, ChromeJsonHasMatchedBeginEndEventsPerSpan) {
  constexpr size_t kIterations = 8;
  Trace trace;
  {
    TraceContextScope scope(&trace);
    TRACE_SPAN("outer");
    const Trace::Context ctx = Trace::CaptureContext();
    ParallelFor(3, kIterations, [&](size_t) {
      TraceContextScope handoff(ctx);
      TraceSpan span("body");
      span.Counter("touched", 1);
    });
  }
  const std::string json = trace.ChromeJson();

  // Well-formed trace_event envelope.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  const std::string tail = "],\"displayTimeUnit\":\"ms\"}\n";
  ASSERT_GE(json.size(), tail.size());
  EXPECT_EQ(json.substr(json.size() - tail.size()), tail);

  // Every recorded span contributes exactly one B and one E event.
  const size_t begins = CountOccurrences(json, "\"ph\":\"B\"");
  const size_t ends = CountOccurrences(json, "\"ph\":\"E\"");
  EXPECT_EQ(begins, kIterations + 1);
  EXPECT_EQ(ends, begins);
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"outer\""), 2u);
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"body\""), 2 * kIterations);
  // Counters ride in the end events' args.
  EXPECT_EQ(CountOccurrences(json, "\"touched\":1"), kIterations);
}

MolqQuery TracedQuery() {
  Rng rng(614);
  MolqQuery query;
  for (int s = 0; s < 3; ++s) {
    ObjectSet set;
    set.name = std::string("type") += std::to_string(s);
    const double type_weight = rng.Uniform(0.5, 4.0);
    for (int i = 0; i < 18; ++i) {
      SpatialObject obj;
      obj.location = {rng.Uniform(5, 95), rng.Uniform(5, 95)};
      obj.type_weight = type_weight;
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  return query;
}

bool BitIdentical(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(TraceTest, ParallelAnswersAreBitIdenticalWithTracingOnAndOff) {
  // Tracing observes the pipeline without ordering it: with the same
  // options the answer bytes must not depend on whether a trace is
  // attached, including under a multi-threaded run.
  const MolqQuery query = TracedQuery();
  const Rect world(0, 0, 100, 100);

  MolqOptions plain;
  plain.epsilon = 1e-6;
  plain.exec.threads = 4;
  const MolqResult off = SolveMolq(query, world, plain);

  Trace trace;
  MolqOptions traced = plain;
  traced.exec.trace = &trace;
  const MolqResult on = SolveMolq(query, world, traced);

  EXPECT_EQ(on.status, StatusCode::kOk);
  EXPECT_TRUE(BitIdentical(on.location.x, off.location.x));
  EXPECT_TRUE(BitIdentical(on.location.y, off.location.y));
  EXPECT_TRUE(BitIdentical(on.cost, off.cost));
  ASSERT_EQ(on.group.size(), off.group.size());
  for (size_t i = 0; i < on.group.size(); ++i) {
    EXPECT_EQ(on.group[i].set, off.group[i].set);
    EXPECT_EQ(on.group[i].object, off.group[i].object);
  }

  // The traced run hands back its sink and recorded the pipeline phases.
  EXPECT_EQ(on.trace, &trace);
  EXPECT_EQ(off.trace, nullptr);
  const std::vector<TraceSpanRecord> records = trace.Collect();
  EXPECT_FALSE(records.empty());
  EXPECT_NE(FindByName(records, "solve_molq"), nullptr);
  EXPECT_NE(FindByName(records, "vd_generator"), nullptr);
  EXPECT_NE(FindByName(records, "movd_overlap"), nullptr);
}

int64_t CounterSum(const std::vector<TraceSpanRecord>& records,
                   const std::string& span, const std::string& key) {
  int64_t sum = 0;
  for (const TraceSpanRecord& r : records) {
    if (r.name != span) continue;
    for (const auto& [name, value] : r.counters) {
      if (name == key) sum += value;
    }
  }
  return sum;
}

TEST(TraceTest, ScanChunkCountersSumToTheOptimizerStats) {
  // The Fermat–Weber scan records one span per chunk carrying the chunk's
  // counters; over a run they add up to MolqStats::optimizer, for the
  // MOVD pipeline (under its optimize_movd stage span), SSC and top-k.
  const MolqQuery query = TracedQuery();
  const Rect world(0, 0, 100, 100);
  const auto expect_sums = [&](const MolqResult& r,
                               const std::vector<TraceSpanRecord>& records,
                               const char* what) {
    ASSERT_EQ(r.status, StatusCode::kOk) << what;
    const OptimizerStats& st = r.stats.optimizer;
    EXPECT_GT(st.problems, 0u) << what;
    EXPECT_EQ(CounterSum(records, "fermat_scan_chunk", "problems"),
              static_cast<int64_t>(st.problems)) << what;
    EXPECT_EQ(CounterSum(records, "fermat_scan_chunk", "skipped_prefilter"),
              static_cast<int64_t>(st.skipped_prefilter)) << what;
    EXPECT_EQ(CounterSum(records, "fermat_scan_chunk", "pruned_by_bound"),
              static_cast<int64_t>(st.pruned_by_bound)) << what;
    EXPECT_EQ(CounterSum(records, "fermat_scan_chunk", "total_iterations"),
              static_cast<int64_t>(st.total_iterations)) << what;
  };
  for (const MolqAlgorithm algorithm :
       {MolqAlgorithm::kRrb, MolqAlgorithm::kSsc}) {
    Trace trace;
    MolqOptions options;
    options.algorithm = algorithm;
    options.exec.threads = 2;
    options.exec.trace = &trace;
    const MolqResult r = SolveMolq(query, world, options);
    const std::vector<TraceSpanRecord> records = trace.Collect();
    expect_sums(r, records,
                algorithm == MolqAlgorithm::kSsc ? "ssc" : "rrb");
    const char* stage =
        algorithm == MolqAlgorithm::kSsc ? "ssc_scan" : "optimize_movd";
    for (const TraceSpanRecord& span : records) {
      if (span.name != "fermat_scan_chunk") continue;
      ASSERT_GE(span.parent, 0);
      EXPECT_EQ(records[span.parent].name, stage);
    }
  }
  Trace trace;
  MolqOptions options;
  options.exec.threads = 2;
  options.exec.trace = &trace;
  const MolqResult top = SolveMolqTopK(query, world, 3, options);
  expect_sums(top, trace.Collect(), "top-k");
}

size_t PieceCount(const Movd& movd) {
  size_t n = 0;
  for (const Ovr& ovr : movd.ovrs) n += ovr.region.pieces().size();
  return n;
}

TEST(TraceTest, WeightedCoverCountersMatchTheBuiltRegions) {
  // Object weights route both sets through the weighted diagram. The
  // cover counters must report the pieces actually built, no cover may
  // fall back to its MBR, and tracing must not change the answer bytes.
  Rng rng(1403);
  MolqQuery query;
  for (int s = 0; s < 2; ++s) {
    ObjectSet set;
    set.name = std::string("type") += std::to_string(s);
    for (int i = 0; i < 10; ++i) {
      SpatialObject obj;
      obj.location = {rng.Uniform(5, 95), rng.Uniform(5, 95)};
      obj.object_weight = rng.Uniform(0.5, 2.5);
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  const Rect world(0, 0, 100, 100);
  MolqOptions plain;
  plain.exec.weighted_grid_resolution = 64;
  const MolqResult off = SolveMolq(query, world, plain);
  Trace trace;
  MolqOptions traced = plain;
  traced.exec.trace = &trace;
  const MolqResult on = SolveMolq(query, world, traced);
  EXPECT_TRUE(BitIdentical(on.location.x, off.location.x));
  EXPECT_TRUE(BitIdentical(on.location.y, off.location.y));
  EXPECT_TRUE(BitIdentical(on.cost, off.cost));
  EXPECT_EQ(on.group, off.group);

  std::vector<Movd> basic;
  for (int32_t s = 0; s < 2; ++s) {
    basic.push_back(BuildBasicMovd(query, s, world, 64));
  }
  // SolveMolq's overlap prunes with the solve's combination bound.
  const CombinationBound bound(query, world, plain.epsilon);
  const Movd overlay = OverlapAll(basic, BoundaryMode::kRealRegion, nullptr,
                                  nullptr, 1, &bound);
  const std::vector<TraceSpanRecord> records = trace.Collect();
  EXPECT_EQ(CounterSum(records, "weighted_grid", "cover_pieces"),
            static_cast<int64_t>(PieceCount(basic[0]) + PieceCount(basic[1])));
  EXPECT_EQ(CounterSum(records, "weighted_grid", "mbr_fallbacks"), 0);
  EXPECT_EQ(CounterSum(records, "overlap_step", "output_pieces"),
            static_cast<int64_t>(PieceCount(overlay)));
  EXPECT_GT(PieceCount(overlay), overlay.ovrs.size());
}

TEST(TraceTest, OrdinaryVoronoiSplitsIntoDelaunayAndCells) {
  // Each ordinary set's "ordinary_voronoi" span holds a "sort_sites" span,
  // a "delaunay" span that counts the distinct sites and a
  // "voronoi_cells" span that counts the bisector clip steps, so a trace
  // splits the VD stage by layer. The unpruned overlay clips every cell;
  // every site lies inside the world, so no cell empties early and each
  // cell runs one step per Delaunay neighbour.
  const MolqQuery query = TracedQuery();
  const Rect world(0, 0, 100, 100);
  Trace trace;
  MolqOptions options;
  options.exec.threads = 2;
  {
    TraceContextScope scope(&trace);
    MolqResult result;
    BuildMolqOverlay(query, world, options, /*prune=*/false, &result);
    ASSERT_EQ(result.status, StatusCode::kOk);
  }
  const std::vector<TraceSpanRecord> records = trace.Collect();
  size_t sorts = 0;
  size_t delaunay = 0;
  size_t cells = 0;
  for (const TraceSpanRecord& r : records) {
    if (r.name != "sort_sites" && r.name != "delaunay" &&
        r.name != "voronoi_cells") {
      continue;
    }
    ASSERT_GE(r.parent, 0);
    EXPECT_EQ(records[r.parent].name, "ordinary_voronoi") << r.name;
    ++(r.name == "sort_sites" ? sorts : r.name == "delaunay" ? delaunay
                                                               : cells);
  }
  EXPECT_EQ(sorts, query.sets.size());
  EXPECT_EQ(delaunay, query.sets.size());
  EXPECT_EQ(cells, query.sets.size());
  int64_t sites = 0;
  int64_t steps = 0;
  for (const ObjectSet& set : query.sets) {
    std::vector<Point> locations;
    for (const SpatialObject& obj : set.objects) {
      locations.push_back(obj.location);
    }
    const Delaunay dt(locations);
    sites += static_cast<int64_t>(dt.num_real_points());
    steps += static_cast<int64_t>(dt.Adjacency().ids.size());
  }
  EXPECT_EQ(CounterSum(records, "delaunay", "sites"), sites);
  EXPECT_EQ(CounterSum(records, "voronoi_cells", "clip_steps"), steps);
}

TEST(TraceTest, PrunedVdStageFiltersBeforeClipping) {
  // SolveMolq triangulates every ordinary set under "ordinary_voronoi",
  // builds the bound, then per set runs "object_filter" and clips the kept
  // cells under "voronoi_cells", all inside "vd_generator". The filter's
  // counters account for every distinct site and for MolqStats.
  const MolqQuery query = TracedQuery();
  Trace trace;
  MolqOptions options;
  options.exec.threads = 2;
  options.exec.trace = &trace;
  const MolqResult result = SolveMolq(query, Rect(0, 0, 100, 100), options);
  ASSERT_EQ(result.status, StatusCode::kOk);
  const std::vector<TraceSpanRecord> records = trace.Collect();
  const TraceSpanRecord* bound = FindByName(records, "combination_bound");
  ASSERT_NE(bound, nullptr);
  ASSERT_GE(bound->parent, 0);
  EXPECT_EQ(records[bound->parent].name, "vd_generator");
  size_t filters = 0;
  size_t cells = 0;
  for (const TraceSpanRecord& r : records) {
    if (r.name == "delaunay" || r.name == "sort_sites") {
      EXPECT_EQ(records[r.parent].name, "ordinary_voronoi") << r.name;
      EXPECT_LE(r.start_ns + r.dur_ns, bound->start_ns) << r.name;
    }
    if (r.name != "object_filter" && r.name != "voronoi_cells") continue;
    ASSERT_GE(r.parent, 0);
    EXPECT_EQ(records[r.parent].name, "vd_generator") << r.name;
    EXPECT_GE(r.start_ns, bound->start_ns + bound->dur_ns) << r.name;
    ++(r.name == "object_filter" ? filters : cells);
  }
  EXPECT_EQ(filters, query.sets.size());
  EXPECT_EQ(cells, query.sets.size());
  int64_t sites = 0;
  int64_t all_steps = 0;
  for (const ObjectSet& set : query.sets) {
    std::vector<Point> locations;
    for (const SpatialObject& obj : set.objects) {
      locations.push_back(obj.location);
    }
    const Delaunay dt(locations);
    sites += static_cast<int64_t>(dt.num_real_points());
    all_steps += static_cast<int64_t>(dt.Adjacency().ids.size());
  }
  EXPECT_EQ(CounterSum(records, "object_filter", "objects"), sites);
  EXPECT_EQ(CounterSum(records, "object_filter", "objects") -
                CounterSum(records, "object_filter", "kept"),
            static_cast<int64_t>(result.stats.pruned_objects));
  EXPECT_GT(result.stats.pruned_objects, 0u);
  EXPECT_LT(CounterSum(records, "voronoi_cells", "clip_steps"), all_steps);
}

TEST(TraceTest, PipelineNamesItsBoundAndItsStepSetUp) {
  // The combination bound's probe grid and refinement run under
  // "combination_bound" in the VD stage, before any cell is clipped, and
  // each overlap step's start order and partner indexes under
  // "partner_index".
  Trace trace;
  MolqOptions options;
  options.exec.threads = 2;
  options.exec.trace = &trace;
  ASSERT_EQ(SolveMolq(TracedQuery(), Rect(0, 0, 100, 100), options).status,
            StatusCode::kOk);
  const std::vector<TraceSpanRecord> records = trace.Collect();
  const TraceSpanRecord* bound = FindByName(records, "combination_bound");
  ASSERT_NE(bound, nullptr);
  ASSERT_GE(bound->parent, 0);
  EXPECT_EQ(records[bound->parent].name, "vd_generator");
  int steps = 0;
  for (const TraceSpanRecord& r : records) {
    if (r.name != "partner_index") continue;
    ASSERT_GE(r.parent, 0);
    EXPECT_EQ(records[r.parent].name, "overlap_step");
    ++steps;
  }
  EXPECT_EQ(steps, 2);  // three sets, two steps
}

}  // namespace
}  // namespace movd
