// Tests for the resident serving subsystem (src/serve, DESIGN.md §8):
// artifact cache semantics (LRU, byte budget, single-flight), serving
// metrics, the line protocol, and the QueryEngine itself — above all that
// served answers are bit-identical to the cold pipeline for every cache
// state, thread count and batching arrangement, and that a fired deadline
// never yields a partial answer.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/molq.h"
#include "model/movd_model.h"
#include "core/topk.h"
#include "geom/polygon.h"
#include "model/update_model.h"
#include "protocol_examples.h"
#include "serve/artifact_key.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "storage/movd_file.h"
#include "util/rng.h"
#include "voronoi/voronoi.h"

namespace movd {
namespace {

constexpr Rect kBounds(0, 0, 100, 100);

std::string TmpDir(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string tag = info == nullptr ? std::string("unknown")
                                    : std::string(info->test_suite_name()) +
                                          "_" + info->name();
  return ::testing::TempDir() + "/" + tag + "_" + name;
}

// A small immutable artifact for cache tests; same seed → same bytes.
std::shared_ptr<const Movd> MakeArtifact(size_t sites, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  for (size_t i = 0; i < sites; ++i) {
    pts.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  const auto vd = VoronoiDiagram::Build(pts, kBounds);
  std::vector<int32_t> ids(vd.sites().size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int32_t>(i);
  return std::make_shared<const Movd>(MovdFromVoronoi(vd, 0, ids));
}

MolqQuery TestQuery(const std::vector<size_t>& sizes, uint64_t seed) {
  Rng rng(seed);
  MolqQuery query;
  for (size_t s = 0; s < sizes.size(); ++s) {
    ObjectSet set;
    set.name = std::string("layer") += std::to_string(s);
    for (size_t i = 0; i < sizes[s]; ++i) {
      SpatialObject obj;
      obj.location = {rng.Uniform(5, 95), rng.Uniform(5, 95)};
      obj.type_weight = rng.Uniform(0.1, 10.0);
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  return query;
}

// Exact (bitwise) answer comparison — the determinism contract is
// bit-identity, not approximate agreement.
void ExpectAnswersEqual(const std::vector<SiteCandidate>& a,
                        const std::vector<SiteCandidate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].location.x, b[i].location.x);
    EXPECT_EQ(a[i].location.y, b[i].location.y);
    EXPECT_EQ(a[i].cost, b[i].cost);
    ASSERT_EQ(a[i].group.size(), b[i].group.size());
    for (size_t g = 0; g < a[i].group.size(); ++g) {
      EXPECT_EQ(a[i].group[g].set, b[i].group[g].set);
      EXPECT_EQ(a[i].group[g].object, b[i].group[g].object);
    }
  }
}

// ---------------------------------------------------------------------------
// ArtifactCache

TEST(ServeCacheTest, ArtifactBytesMatchesOnDiskSize) {
  const auto artifact = MakeArtifact(12, 11);
  const std::string path = TmpDir("artifact.movd");
  ASSERT_TRUE(SaveMovd(path, *artifact).ok());
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  ASSERT_TRUE(file);
  // Cache accounting == file bytes: a cache budget and a warm-start
  // snapshot size mean the same thing.
  EXPECT_EQ(ArtifactBytes(*artifact), static_cast<size_t>(file.tellg()));
  std::remove(path.c_str());
}

TEST(ServeCacheTest, HitAvoidsBuilderAndCountsStats) {
  ArtifactCache cache(64 << 20);
  const auto artifact = MakeArtifact(10, 1);
  std::atomic<int> builds{0};
  const auto builder = [&] {
    ++builds;
    return artifact;
  };
  bool hit = true;
  EXPECT_EQ(cache.GetOrBuild("k", builder, &hit), artifact);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.GetOrBuild("k", builder, &hit), artifact);
  EXPECT_TRUE(hit);
  EXPECT_EQ(builds.load(), 1);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, ArtifactBytes(*artifact));
}

TEST(ServeCacheTest, EvictsLeastRecentlyUsed) {
  const auto a = MakeArtifact(10, 1);
  const auto b = MakeArtifact(10, 2);
  const auto c = MakeArtifact(10, 3);
  const size_t each = ArtifactBytes(*a);
  // Room for two artifacts of this size, not three.
  ArtifactCache cache(2 * each + each / 2);
  cache.Insert("a", a);
  cache.Insert("b", b);
  // Touch "a" so "b" is the least recently used entry.
  bool hit = false;
  EXPECT_NE(cache.GetOrBuild("a", [] { return nullptr; }, &hit), nullptr);
  EXPECT_TRUE(hit);
  cache.Insert("c", c);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, stats.capacity);
}

TEST(ServeCacheTest, OversizeArtifactIsNotCached) {
  const auto artifact = MakeArtifact(10, 1);
  ArtifactCache cache(ArtifactBytes(*artifact) - 1);
  cache.Insert("big", artifact);
  EXPECT_EQ(cache.Lookup("big"), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.oversize, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(ServeCacheTest, CapacityZeroAlwaysBuilds) {
  ArtifactCache cache(0);
  const auto artifact = MakeArtifact(10, 1);
  std::atomic<int> builds{0};
  const auto builder = [&] {
    ++builds;
    return artifact;
  };
  bool hit = true;
  EXPECT_EQ(cache.GetOrBuild("k", builder, &hit), artifact);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.GetOrBuild("k", builder, &hit), artifact);
  EXPECT_FALSE(hit);
  EXPECT_EQ(builds.load(), 2);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ServeCacheTest, SingleFlightBuildsOnceUnderContention) {
  ArtifactCache cache(64 << 20);
  const auto artifact = MakeArtifact(10, 1);
  std::atomic<int> builds{0};
  const auto builder = [&]() -> std::shared_ptr<const Movd> {
    ++builds;
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return artifact;
  };
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const Movd>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { got[t] = cache.GetOrBuild("k", builder); });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  for (const auto& g : got) EXPECT_EQ(g, artifact);
}

TEST(ServeCacheTest, NullBuilderResultCachesNothing) {
  ArtifactCache cache(64 << 20);
  EXPECT_EQ(cache.GetOrBuild(
                "k", []() -> std::shared_ptr<const Movd> { return nullptr; }),
            nullptr);
  EXPECT_EQ(cache.stats().inserts, 0u);
  // The key is not poisoned: a later successful build caches normally.
  const auto artifact = MakeArtifact(10, 1);
  EXPECT_EQ(cache.GetOrBuild("k", [&] { return artifact; }), artifact);
  EXPECT_EQ(cache.Lookup("k"), artifact);
}

TEST(ServeCacheTest, SnapshotIsMostRecentlyUsedFirst) {
  ArtifactCache cache(64 << 20);
  cache.Insert("a", MakeArtifact(8, 1));
  cache.Insert("b", MakeArtifact(8, 2));
  cache.Insert("c", MakeArtifact(8, 3));
  bool hit = false;
  cache.GetOrBuild("a", [] { return nullptr; }, &hit);
  ASSERT_TRUE(hit);
  const auto snapshot = cache.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].first, "a");
  EXPECT_EQ(snapshot[1].first, "c");
  EXPECT_EQ(snapshot[2].first, "b");
}

// ---------------------------------------------------------------------------
// ArtifactKey

ArtifactKey Key(ArtifactKey::Kind kind, std::string dataset,
                std::vector<int32_t> layers) {
  ArtifactKey key;
  key.kind = kind;
  key.dataset = std::move(dataset);
  key.version = 7;
  key.layers = std::move(layers);
  key.resolution = 128;
  key.weight_tag = "mam";
  return key;
}

TEST(ServeArtifactKeyTest, FormatsTheDocumentedGrammar) {
  using Kind = ArtifactKey::Kind;
  EXPECT_EQ(Key(Kind::kBasic, "d", {2}).Format(), "basic/d/v7/L2/r128/wmam");
  ArtifactKey overlay = Key(Kind::kOverlay, "d", {0, 2, 10});
  EXPECT_EQ(overlay.Format(), "ovl/d/v7/L0,2,10/rrb/r128/wmam");
  overlay.mode = BoundaryMode::kMbr;
  EXPECT_EQ(overlay.Format(), "ovl/d/v7/L0,2,10/mbrb/r128/wmam");
  ArtifactKey clipped = Key(Kind::kClipped, "a/b", {0, 1});
  clipped.constraint_hash = "0123456789abcdef";
  EXPECT_EQ(clipped.Format(),
            "cns/a/b/v7/L0,1/rrb/r128/wmam/c0123456789abcdef");
}

TEST(ServeArtifactKeyTest, ParseInvertsFormat) {
  using Kind = ArtifactKey::Kind;
  std::vector<ArtifactKey> keys = {Key(Kind::kBasic, "d", {0}),
                                   Key(Kind::kBasic, "", {3}),
                                   Key(Kind::kOverlay, "x/v1/L0", {0, 1}),
                                   Key(Kind::kClipped, "d", {1, 4})};
  keys[1].resolution = -5;
  keys[2].mode = BoundaryMode::kMbr;
  keys[2].version = UINT64_MAX;
  keys[3].constraint_hash = "ffffffffffffffff";
  for (const ArtifactKey& key : keys) {
    const std::string text = key.Format();
    const std::optional<ArtifactKey> parsed = ArtifactKey::Parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(*parsed, key) << text;
    EXPECT_EQ(parsed->Format(), text);
  }
}

TEST(ServeArtifactKeyTest, ParseRejectsWhatFormatNeverEmits) {
  const char* const bad[] = {
      "",
      "basic",
      "tile/d/v1/L0/r128/wm",
      "basic/v1/L0/r128/wm",           // no dataset segment
      "basic/d/v1/L0,1/r128/wmm",      // a basic holds one layer
      "basic/d/v1/L0/rrb/r128/wm",     // a basic has no mode
      "ovl/d/v1/L0,1/r128/wmm",        // an overlay has one
      "ovl/d/v1/L0,01,2/rrb/r128/wm",  // leading zero
      "ovl/d/v1/L1,0/rrb/r128/wm",     // descending
      "ovl/d/v1/L0,0/rrb/r128/wm",     // repeated
      "ovl/d/v1/L0,/rrb/r128/wm",
      "ovl/d/v1/L-1,0/rrb/r128/wm",
      "ovl/d/v1/L0,1/RRB/r128/wm",
      "ovl/d/v01/L0,1/rrb/r128/wm",
      "ovl/d/v/L0,1/rrb/r128/wm",
      "ovl/d/v1/L0,1/rrb/r+128/wm",
      "ovl/d/v1/L0,1/rrb/r-0/wm",
      "ovl/d/v1/L0,1/rrb/r99999999999/wm",
      "ovl/d/v1/L0,1/rrb/r128/w",
      "ovl/d/v1/L0,1/rrb/r128/wmx",
      "ovl/d/v1/L0,1/rrb/r128/wm/",
      "cns/d/v1/L0,1/mbrb/r128/wm/c0123456789abcdef",
      "cns/d/v1/L0,1/rrb/r128/wm/c0123456789abcde",
      "cns/d/v1/L0,1/rrb/r128/wm/c0123456789ABCDEF",
      "cns/d/v1/L0,1/rrb/r128/wm",
  };
  for (const char* key : bad) {
    EXPECT_FALSE(ArtifactKey::Parse(key).has_value()) << key;
  }
}

// ---------------------------------------------------------------------------
// Metrics

TEST(ServeMetricsTest, HistogramResolvesPercentilesToBucketBounds) {
  LatencyHistogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.PercentileSeconds(50), 0.0);
  for (int i = 0; i < 10; ++i) h.Record(3e-6);   // bucket [2us, 4us)
  for (int i = 0; i < 3; ++i) h.Record(1000e-6); // bucket [512us, 1024us)
  EXPECT_EQ(h.Count(), 13u);
  EXPECT_DOUBLE_EQ(h.PercentileSeconds(50), 4e-6);
  EXPECT_DOUBLE_EQ(h.PercentileSeconds(99), 1024e-6);
}

TEST(ServeMetricsTest, CountersAndJson) {
  ServeMetrics metrics;
  metrics.RecordRequest(StatusCode::kOk, 0.001, /*cache_hit=*/true);
  metrics.RecordRequest(StatusCode::kOk, 0.002, /*cache_hit=*/false);
  metrics.RecordRequest(StatusCode::kDeadlineExceeded, 0.005, false);
  metrics.RecordRequest(StatusCode::kInvalidArgument, 0.0001, false);
  EXPECT_EQ(metrics.requests(), 4u);
  EXPECT_EQ(metrics.ok(), 2u);
  EXPECT_EQ(metrics.deadline_exceeded(), 1u);
  EXPECT_EQ(metrics.invalid(), 1u);
  EXPECT_EQ(metrics.internal_errors(), 0u);
  EXPECT_EQ(metrics.overlay_hits(), 1u);
  EXPECT_EQ(metrics.latency().Count(), 4u);

  const std::string json = metrics.Json(ArtifactCache(1 << 20).stats());
  EXPECT_NE(json.find("\"requests\":4"), std::string::npos);
  EXPECT_NE(json.find("\"ok\":2"), std::string::npos);
  EXPECT_NE(json.find("\"deadline_exceeded\":1"), std::string::npos);
  EXPECT_NE(json.find("\"overlay_cache_hits\":1"), std::string::npos);
  EXPECT_NE(json.find("\"cache_capacity\":1048576"), std::string::npos);
  EXPECT_NE(json.find("\"latency_buckets\":["), std::string::npos);
}

TEST(ServeMetricsTest, StatusNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "INVALID_REQUEST");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal),
               "INTERNAL_ERROR");
}

// ---------------------------------------------------------------------------
// Line protocol

TEST(ServeProtocolTest, ParsesFullSolveLine) {
  ServeVerb verb;
  EngineRequest request;
  const Status parsed = ParseRequest(
      "SOLVE id=q7 dataset=city layers=2,0 algo=mbrb k=3 epsilon=0.01 "
      "deadline_ms=250 threads=4 cache=0",
      &verb, &request);
  ASSERT_TRUE(parsed.ok()) << parsed.ToString();
  EXPECT_EQ(verb, ServeVerb::kSolve);
  EXPECT_EQ(request.id, "q7");
  EXPECT_EQ(request.dataset, "city");
  ASSERT_EQ(request.layers.size(), 2u);
  EXPECT_EQ(request.layers[0], 2);
  EXPECT_EQ(request.layers[1], 0);
  const SolveSpec& spec = std::get<SolveSpec>(request.op);
  EXPECT_EQ(spec.algorithm, MolqAlgorithm::kMbrb);
  EXPECT_EQ(spec.topk, 3u);
  EXPECT_DOUBLE_EQ(request.epsilon, 0.01);
  EXPECT_DOUBLE_EQ(request.deadline_ms, 250.0);
  EXPECT_EQ(request.exec.threads, 4);
  EXPECT_FALSE(request.use_cache);
}

TEST(ServeProtocolTest, SolveDefaultsAndRequiredDataset) {
  ServeVerb verb;
  EngineRequest request;
  ASSERT_TRUE(ParseRequest("SOLVE dataset=d", &verb, &request).ok());
  EXPECT_EQ(request.id, "-");
  EXPECT_TRUE(request.layers.empty());
  const SolveSpec& spec = std::get<SolveSpec>(request.op);
  EXPECT_EQ(spec.algorithm, MolqAlgorithm::kRrb);
  EXPECT_EQ(spec.topk, 1u);
  EXPECT_TRUE(request.use_cache);
  const Status missing = ParseRequest("SOLVE id=x k=2", &verb, &request);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(missing.message().find("dataset"), std::string::npos);
}

TEST(ServeProtocolTest, RejectsUnknownAndMalformedArguments) {
  ServeVerb verb;
  EngineRequest request;
  // A misspelled key must fail loudly, not fall back to a default.
  const Status misspelled =
      ParseRequest("SOLVE dataset=d epsilonn=0.1", &verb, &request);
  EXPECT_FALSE(misspelled.ok());
  EXPECT_NE(misspelled.message().find("epsilonn"), std::string::npos);
  EXPECT_FALSE(ParseRequest("SOLVE dataset=d k=0", &verb, &request).ok());
  EXPECT_FALSE(
      ParseRequest("SOLVE dataset=d epsilon=0", &verb, &request).ok());
  EXPECT_FALSE(
      ParseRequest("SOLVE dataset=d layers=1,x", &verb, &request).ok());
  EXPECT_FALSE(
      ParseRequest("SOLVE dataset=d algo=fast", &verb, &request).ok());
  EXPECT_FALSE(
      ParseRequest("SOLVE dataset=d cache=yes", &verb, &request).ok());
  EXPECT_FALSE(ParseRequest("EXPLODE now", &verb, &request).ok());
  EXPECT_FALSE(ParseRequest("", &verb, &request).ok());
  EXPECT_FALSE(ParseRequest("PING extra", &verb, &request).ok());
}

TEST(ServeProtocolTest, VerbsAreCaseInsensitive) {
  ServeVerb verb;
  EngineRequest request;
  ASSERT_TRUE(ParseRequest("ping", &verb, &request).ok());
  EXPECT_EQ(verb, ServeVerb::kPing);
  ASSERT_TRUE(ParseRequest("Stats", &verb, &request).ok());
  EXPECT_EQ(verb, ServeVerb::kStats);
  ASSERT_TRUE(ParseRequest("quit", &verb, &request).ok());
  EXPECT_EQ(verb, ServeVerb::kQuit);
  ASSERT_TRUE(ParseRequest("shutdown", &verb, &request).ok());
  EXPECT_EQ(verb, ServeVerb::kShutdown);
  ASSERT_TRUE(ParseRequest("solve dataset=d", &verb, &request).ok());
  EXPECT_EQ(verb, ServeVerb::kSolve);
}

TEST(ServeProtocolTest, FormatsOkAndErrLines) {
  MolqQuery query = TestQuery({2, 2}, 5);
  ServeResponse resp;
  resp.id = "q1";
  SiteCandidate answer;
  answer.location = {1.5, 2.5};
  answer.cost = 10.0;
  answer.group.push_back({0, 1});
  answer.group.push_back({1, 0});
  resp.answers.push_back(answer);
  resp.seconds = 0.25;
  const std::string ok = FormatResponseLine(&query, resp);
  EXPECT_EQ(ok.rfind("OK q1 {\"answers\": [", 0), 0u) << ok;
  EXPECT_NE(ok.find("\"location\": [1.500000, 2.500000]"), std::string::npos);
  EXPECT_NE(ok.find("\"cost\": 10.000000"), std::string::npos);
  EXPECT_NE(ok.find("\"set\": \"layer0\""), std::string::npos);
  EXPECT_NE(ok.find("\"cache_hit\": false"), std::string::npos);
  EXPECT_NE(ok.find("\"seconds\": 0.250000"), std::string::npos);

  ServeResponse err;
  err.id = "q2";
  err.status = StatusCode::kInvalidArgument;
  err.error = "unknown dataset 'x'";
  EXPECT_EQ(FormatResponseLine(nullptr, err),
            "ERR q2 INVALID_REQUEST unknown dataset 'x'");
}

/// Parses `request`'s wire line back; the envelope must survive exactly.
EngineRequest RoundTrip(const EngineRequest& request) {
  ServeVerb verb = ServeVerb::kPing;
  EngineRequest parsed;
  const std::string line = FormatRequestLine(request);
  const Status status = ParseRequest(line, &verb, &parsed);
  EXPECT_TRUE(status.ok()) << line << ": " << status.ToString();
  EXPECT_EQ(verb, ServeVerb::kSolve) << line;
  EXPECT_EQ(parsed.id, request.id) << line;
  EXPECT_EQ(parsed.dataset, request.dataset) << line;
  EXPECT_EQ(parsed.op.index(), request.op.index()) << line;
  if (!IsMutation(request)) {
    EXPECT_EQ(parsed.layers, request.layers) << line;
    EXPECT_EQ(parsed.epsilon, request.epsilon) << line;
    EXPECT_EQ(parsed.exec.threads, request.exec.threads) << line;
    EXPECT_EQ(parsed.use_cache, request.use_cache) << line;
    EXPECT_EQ(parsed.deadline_ms, request.deadline_ms) << line;
  }
  return parsed;
}

void ExpectSamePolygon(const Polygon& a, const Polygon& b) {
  ASSERT_EQ(a.vertices().size(), b.vertices().size());
  for (size_t i = 0; i < a.vertices().size(); ++i) {
    EXPECT_EQ(a.vertices()[i].x, b.vertices()[i].x);  // bit-exact
    EXPECT_EQ(a.vertices()[i].y, b.vertices()[i].y);
  }
}

// The payload checks, one overload per EngineOp alternative: a new
// alternative does not compile in the round-trip test until it has one.
void ExpectSameOp(const SolveSpec& want, const SolveSpec& got) {
  EXPECT_EQ(got.algorithm, want.algorithm);
  EXPECT_EQ(got.topk, want.topk);
}
void ExpectSameOp(const SkylineSpec& want, const SkylineSpec& got) {
  EXPECT_EQ(got.algorithm, want.algorithm);
}
void ExpectSameOp(const DiverseSpec& want, const DiverseSpec& got) {
  EXPECT_EQ(got.algorithm, want.algorithm);
  EXPECT_EQ(got.topk, want.topk);
  EXPECT_EQ(got.min_distance, want.min_distance);
}
void ExpectSameOp(const ConstrainSpec& want, const ConstrainSpec& got) {
  ExpectSamePolygon(got.constraint.boundary, want.constraint.boundary);
  ASSERT_EQ(got.constraint.exclusions.size(),
            want.constraint.exclusions.size());
  for (size_t i = 0; i < want.constraint.exclusions.size(); ++i) {
    ExpectSamePolygon(got.constraint.exclusions[i],
                      want.constraint.exclusions[i]);
  }
}
void ExpectSameOp(const WhatIfSpec& want, const WhatIfSpec& got) {
  EXPECT_EQ(got.algorithm, want.algorithm);
  EXPECT_EQ(got.topk, want.topk);
  EXPECT_EQ(got.sweep, want.sweep);  // bit-exact
}
// Mutations carry no query envelope and round-trip their coordinates
// with full precision.
void ExpectSameOp(const SiteMutation& want, const SiteMutation& got) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.layer, want.layer);
  EXPECT_EQ(got.location.x, want.location.x);  // bit-exact
  EXPECT_EQ(got.location.y, want.location.y);
}

TEST(ServeProtocolTest, FormatRequestLineRoundTripsEveryOp) {
  const std::vector<EngineRequest> requests = ExampleRequests();
  std::vector<bool> covered(std::variant_size_v<EngineOp>, false);
  std::vector<MutationKind> mutation_kinds;
  for (const EngineRequest& request : requests) {
    covered[request.op.index()] = true;
    if (const auto* m = std::get_if<SiteMutation>(&request.op)) {
      mutation_kinds.push_back(m->kind);
    }
    const EngineRequest back = RoundTrip(request);
    ASSERT_EQ(back.op.index(), request.op.index());
    std::visit(
        [&back](const auto& want) {
          using Spec = std::decay_t<decltype(want)>;
          ExpectSameOp(want, std::get<Spec>(back.op));
        },
        request.op);
  }
  // The examples reach every EngineOp alternative and both mutations.
  EXPECT_EQ(covered, std::vector<bool>(covered.size(), true));
  EXPECT_EQ(mutation_kinds, (std::vector<MutationKind>{
                                MutationKind::kInsert, MutationKind::kDelete}));
}

TEST(ServeProtocolTest, RejectsRoutingRect) {
  // Protocol v3's rect= hint is gone: it is an unknown argument on every
  // verb that once took it.
  for (const char* line :
       {"SOLVE dataset=d rect=0,0;10,10",
        "DIVERSE dataset=d k=2 min_dist=1 rect=0,0;10,10",
        "CONSTRAIN dataset=d boundary=0,0;9,0;9,9 rect=0,0;10,10"}) {
    ServeVerb verb;
    EngineRequest request;
    const Status status = ParseRequest(line, &verb, &request);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << line;
    EXPECT_NE(status.message().find("unknown"), std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("'rect'"), std::string::npos)
        << status.message();
  }
}

// ---------------------------------------------------------------------------
// QueryEngine

TEST(ServeEngineTest, ServedAnswerIsBitIdenticalToColdPipeline) {
  const MolqQuery query = TestQuery({30, 25, 20}, 42);
  const Rect world = kBounds;
  QueryEngine engine;
  engine.RegisterDataset("city", query, world);

  EngineRequest request;
  request.dataset = "city";
  request.epsilon = 1e-4;
  const ServeResponse cold = engine.Handle(request);
  ASSERT_EQ(cold.status, StatusCode::kOk);
  EXPECT_FALSE(cold.cache_hit);
  ASSERT_EQ(cold.answers.size(), 1u);

  // Reference: the unbatched, uncached pipeline.
  MolqOptions opts;
  opts.algorithm = MolqAlgorithm::kRrb;
  opts.epsilon = 1e-4;
  const MolqResult direct = SolveMolq(query, world, opts);
  EXPECT_EQ(cold.answers[0].location.x, direct.location.x);
  EXPECT_EQ(cold.answers[0].location.y, direct.location.y);
  EXPECT_EQ(cold.answers[0].cost, direct.cost);

  // Second request is served from cache and stays bit-identical.
  const ServeResponse warm = engine.Handle(request);
  ASSERT_EQ(warm.status, StatusCode::kOk);
  EXPECT_TRUE(warm.cache_hit);
  ExpectAnswersEqual(cold.answers, warm.answers);
  EXPECT_EQ(engine.metrics().ok(), 2u);
  EXPECT_EQ(engine.metrics().overlay_hits(), 1u);
}

TEST(ServeEngineTest, AnswersIdenticalAcrossThreadCountsAndCacheState) {
  const MolqQuery query = TestQuery({25, 25}, 7);
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);
  EngineRequest request;
  request.dataset = "d";
  std::vector<SiteCandidate> reference;
  for (const int threads : {1, 2, 4}) {
    for (const bool use_cache : {true, false}) {
      request.exec.threads = threads;
      request.use_cache = use_cache;
      const ServeResponse resp = engine.Handle(request);
      ASSERT_EQ(resp.status, StatusCode::kOk);
      if (reference.empty()) {
        reference = resp.answers;
      } else {
        ExpectAnswersEqual(reference, resp.answers);
      }
    }
  }
}

TEST(ServeEngineTest, LayerSubsetMatchesDirectSubQuery) {
  const MolqQuery query = TestQuery({20, 20, 20}, 13);
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);
  EngineRequest request;
  request.dataset = "d";
  request.layers = {2, 0};  // order and duplicates are normalized
  const ServeResponse resp = engine.Handle(request);
  ASSERT_EQ(resp.status, StatusCode::kOk);
  ASSERT_EQ(resp.answers.size(), 1u);

  MolqQuery sub;
  sub.sets = {query.sets[0], query.sets[2]};
  MolqOptions opts;
  opts.algorithm = MolqAlgorithm::kRrb;
  const MolqResult direct = SolveMolq(sub, kBounds, opts);
  EXPECT_EQ(resp.answers[0].location.x, direct.location.x);
  EXPECT_EQ(resp.answers[0].location.y, direct.location.y);
  EXPECT_EQ(resp.answers[0].cost, direct.cost);
  // Group refs use DATASET layer indices (0 and 2), not sub-query ones.
  for (const PoiRef& poi : resp.answers[0].group) {
    EXPECT_TRUE(poi.set == 0 || poi.set == 2) << poi.set;
  }
}

TEST(ServeEngineTest, SscMatchesMovdAlgorithmsAndRemapsGroups) {
  const MolqQuery query = TestQuery({12, 12, 12}, 19);
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);
  EngineRequest request;
  request.dataset = "d";
  request.layers = {1, 2};
  request.op = SolveSpec{MolqAlgorithm::kSsc, 1};
  const ServeResponse ssc = engine.Handle(request);
  ASSERT_EQ(ssc.status, StatusCode::kOk);
  ASSERT_EQ(ssc.answers.size(), 1u);
  for (const PoiRef& poi : ssc.answers[0].group) {
    EXPECT_TRUE(poi.set == 1 || poi.set == 2) << poi.set;
  }
  request.op = SolveSpec{MolqAlgorithm::kRrb, 1};
  const ServeResponse rrb = engine.Handle(request);
  ASSERT_EQ(rrb.status, StatusCode::kOk);
  // SSC is exact; RRB is epsilon-approximate. Same combination, near cost.
  ASSERT_EQ(ssc.answers[0].group.size(), rrb.answers[0].group.size());
  EXPECT_NEAR(ssc.answers[0].cost, rrb.answers[0].cost,
              1e-2 * ssc.answers[0].cost + 1e-6);

  // SSC serves k=1 only.
  request.op = SolveSpec{MolqAlgorithm::kSsc, 2};
  EXPECT_EQ(engine.Handle(request).status, StatusCode::kInvalidArgument);
}

TEST(ServeEngineTest, SscRefusesNegativeObjectWeight) {
  // SolveMolq refuses an object weight of -2 with no answer; the SSC
  // branch must pass that on as an error, not read an empty ranking.
  MolqQuery query;
  query.sets.resize(2);
  query.sets[0].objects = {{{10, 10}, 1.0, -2.0}, {{50, 50}, 1.0, 1.0}};
  query.sets[1].objects = {{{20, 20}, 1.0, 1.0}, {{60, 60}, 1.0, 1.0}};
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);
  EngineRequest request;
  request.dataset = "d";
  request.op = SolveSpec{MolqAlgorithm::kSsc, 1};
  const ServeResponse resp = engine.Handle(request);
  EXPECT_EQ(resp.status, StatusCode::kInvalidArgument);
  EXPECT_NE(resp.error.find("object weight"), std::string::npos)
      << resp.error;
  EXPECT_TRUE(resp.answers.empty());
  EXPECT_EQ(engine.metrics().invalid(), 1u);
}

TEST(ServeEngineTest, EveryVerbRefusesNegativeObjectWeight) {
  // The shapes over cached overlays answer without SolveMolq, so the
  // engine runs its weight check itself, on the query each request
  // answers: the selected layers (flagged once per snapshot), and each
  // what-if vector's adjusted layers.
  MolqQuery query;
  query.sets.resize(2);
  query.sets[0].objects = {{{10, 10}, 1.0, -2.0}, {{50, 50}, 1.0, 1.0}};
  query.sets[1].objects = {{{20, 20}, 1.0, 1.0}, {{60, 60}, 1.0, 1.0}};
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);
  const std::vector<EngineOp> ops = {
      SolveSpec{MolqAlgorithm::kRrb, 1},
      SolveSpec{MolqAlgorithm::kMbrb, 1},
      SolveSpec{MolqAlgorithm::kRrb, 3},
      SkylineSpec{MolqAlgorithm::kRrb},
      WhatIfSpec{MolqAlgorithm::kRrb, 1, {{1.0, 1.0}}}};
  for (size_t i = 0; i < ops.size(); ++i) {
    EngineRequest request;
    request.dataset = "d";
    request.op = ops[i];
    const ServeResponse resp = engine.Handle(request);
    EXPECT_EQ(resp.status, StatusCode::kInvalidArgument) << "op " << i;
    EXPECT_NE(resp.error.find("object weight"), std::string::npos)
        << "op " << i << ": " << resp.error;
    EXPECT_TRUE(resp.answers.empty()) << "op " << i;
  }
  EXPECT_EQ(engine.metrics().invalid(), ops.size());

  // Layer 1 alone holds no negative weight, so it is answered.
  EngineRequest layer1;
  layer1.dataset = "d";
  layer1.layers = {1};
  layer1.op = SolveSpec{MolqAlgorithm::kRrb, 1};
  const ServeResponse ok = engine.Handle(layer1);
  ASSERT_EQ(ok.status, StatusCode::kOk) << ok.error;
  ASSERT_EQ(ok.answers.size(), 1u);
  EXPECT_GE(ok.answers[0].cost, 0.0);

  // Deleting the negative-weight object clears layer 0's flag in the new
  // snapshot: every layer is answered.
  EngineRequest del;
  del.dataset = "d";
  del.op = SiteMutation{MutationKind::kDelete, 0, {10, 10}};
  ASSERT_EQ(engine.Handle(del).status, StatusCode::kOk);
  EngineRequest all;
  all.dataset = "d";
  all.op = SolveSpec{MolqAlgorithm::kRrb, 1};
  EXPECT_EQ(engine.Handle(all).status, StatusCode::kOk);

  // Under an additive type function a what-if entry shifts the weights:
  // -2 takes layer 1's type weights of 1 below zero, 0.5 does not.
  MolqQuery additive = query;
  additive.type_function = WeightFunctionKind::kAdditive;
  additive.sets[0].objects[0].object_weight = 1.0;
  engine.RegisterDataset("a", additive, kBounds);
  EngineRequest whatif;
  whatif.dataset = "a";
  whatif.op = WhatIfSpec{MolqAlgorithm::kRrb, 1, {{0.5, 0.5}, {0.5, -2.0}}};
  const ServeResponse refused = engine.Handle(whatif);
  EXPECT_EQ(refused.status, StatusCode::kInvalidArgument);
  EXPECT_NE(refused.error.find("object weight"), std::string::npos)
      << refused.error;
  whatif.op = WhatIfSpec{MolqAlgorithm::kRrb, 1, {{0.5, 0.5}}};
  const ServeResponse answered = engine.Handle(whatif);
  EXPECT_EQ(answered.status, StatusCode::kOk) << answered.error;
}

TEST(ServeEngineTest, TopKMatchesDirectRanking) {
  const MolqQuery query = TestQuery({20, 20}, 23);
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);
  EngineRequest request;
  request.dataset = "d";
  request.op = SolveSpec{MolqAlgorithm::kRrb, 3};
  const ServeResponse resp = engine.Handle(request);
  ASSERT_EQ(resp.status, StatusCode::kOk);
  ASSERT_EQ(resp.answers.size(), 3u);
  EXPECT_LE(resp.answers[0].cost, resp.answers[1].cost);
  EXPECT_LE(resp.answers[1].cost, resp.answers[2].cost);

  MolqOptions opts;
  opts.algorithm = MolqAlgorithm::kRrb;
  const auto direct = SolveMolqTopK(query, kBounds, 3, opts);
  ASSERT_EQ(direct.ranked.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(resp.answers[i].location.x, direct.ranked[i].location.x);
    EXPECT_EQ(resp.answers[i].location.y, direct.ranked[i].location.y);
    EXPECT_EQ(resp.answers[i].cost, direct.ranked[i].cost);
  }
}

TEST(ServeEngineTest, InvalidRequestsAreStructuredErrors) {
  QueryEngine engine;
  engine.RegisterDataset("d", TestQuery({5, 5}, 3), kBounds);
  EngineRequest request;
  request.dataset = "nope";
  ServeResponse resp = engine.Handle(request);
  EXPECT_EQ(resp.status, StatusCode::kInvalidArgument);
  EXPECT_NE(resp.error.find("unknown dataset"), std::string::npos);
  EXPECT_TRUE(resp.answers.empty());

  request.dataset = "d";
  request.layers = {0, 5};
  resp = engine.Handle(request);
  EXPECT_EQ(resp.status, StatusCode::kInvalidArgument);
  EXPECT_NE(resp.error.find("out of range"), std::string::npos);

  request.layers.clear();
  request.op = SolveSpec{MolqAlgorithm::kRrb, 0};
  EXPECT_EQ(engine.Handle(request).status, StatusCode::kInvalidArgument);
  request.op = SolveSpec{MolqAlgorithm::kRrb, 1};
  request.epsilon = 0.0;
  EXPECT_EQ(engine.Handle(request).status, StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.metrics().invalid(), 4u);
  EXPECT_EQ(engine.metrics().ok(), 0u);
}

TEST(ServeEngineTest, DeadlineExceededReturnsNoPartialAnswer) {
  // Big enough that the pipeline cannot finish within a microsecond.
  const MolqQuery query = TestQuery({80, 80, 80}, 31);
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);
  EngineRequest request;
  request.dataset = "d";
  request.epsilon = 1e-4;
  request.deadline_ms = 0.001;
  const ServeResponse timed_out = engine.Handle(request);
  EXPECT_EQ(timed_out.status, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(timed_out.answers.empty());
  EXPECT_FALSE(timed_out.error.empty());
  EXPECT_EQ(engine.metrics().deadline_exceeded(), 1u);

  // The aborted build poisoned nothing: the same request without a
  // deadline matches the cold pipeline exactly.
  request.deadline_ms = 0.0;
  const ServeResponse full = engine.Handle(request);
  ASSERT_EQ(full.status, StatusCode::kOk);
  MolqOptions opts;
  opts.algorithm = MolqAlgorithm::kRrb;
  opts.epsilon = 1e-4;
  const MolqResult direct = SolveMolq(query, kBounds, opts);
  EXPECT_EQ(full.answers[0].location.x, direct.location.x);
  EXPECT_EQ(full.answers[0].cost, direct.cost);
}

TEST(ServeEngineTest, ConcurrentBatchedRequestsStayDeterministic) {
  const MolqQuery query = TestQuery({20, 20, 15}, 47);
  QueryEngineOptions options;
  options.workers = 4;
  QueryEngine engine(options);
  engine.RegisterDataset("d", query, kBounds);

  // Reference answers for three distinct request shapes, solved serially.
  std::vector<EngineRequest> shapes(3);
  for (auto& s : shapes) s.dataset = "d";
  shapes[1].layers = {0, 1};
  shapes[2].op = SolveSpec{MolqAlgorithm::kMbrb, 1};
  std::vector<ServeResponse> reference;
  for (const auto& s : shapes) {
    reference.push_back(engine.Handle(s));
    ASSERT_EQ(reference.back().status, StatusCode::kOk);
  }

  // A burst of interleaved duplicates through the worker pool.
  std::vector<std::future<ServeResponse>> futures;
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t s = 0; s < shapes.size(); ++s) {
      EngineRequest request = shapes[s];
      request.id = std::to_string(round) + ":" + std::to_string(s);
      futures.push_back(engine.HandleAsync(std::move(request)));
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const ServeResponse resp = futures[i].get();
    ASSERT_EQ(resp.status, StatusCode::kOk) << resp.error;
    ExpectAnswersEqual(reference[i % shapes.size()].answers, resp.answers);
  }
  EXPECT_EQ(engine.metrics().ok(),
            static_cast<uint64_t>(kRounds + 1) * shapes.size());
}

TEST(ServeEngineTest, CacheDisabledEngineStaysCorrect) {
  const MolqQuery query = TestQuery({15, 15}, 53);
  QueryEngineOptions options;
  options.cache_bytes = 0;
  QueryEngine engine(options);
  engine.RegisterDataset("d", query, kBounds);
  EngineRequest request;
  request.dataset = "d";
  const ServeResponse first = engine.Handle(request);
  const ServeResponse second = engine.Handle(request);
  ASSERT_EQ(first.status, StatusCode::kOk);
  ASSERT_EQ(second.status, StatusCode::kOk);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(second.cache_hit);
  ExpectAnswersEqual(first.answers, second.answers);
  EXPECT_EQ(engine.cache_stats().entries, 0u);
}

TEST(ServeEngineTest, WarmStartRoundTripServesIdenticalAnswersFromCache) {
  const MolqQuery query = TestQuery({20, 20}, 61);
  const std::string dir = TmpDir("warm");
  EngineRequest request;
  request.dataset = "d";
  ServeResponse cold;
  {
    QueryEngine engine;
    engine.RegisterDataset("d", query, kBounds);
    cold = engine.Handle(request);
    ASSERT_EQ(cold.status, StatusCode::kOk);
    const Status saved = engine.SaveCache(dir);
    ASSERT_TRUE(saved.ok()) << saved.ToString();
  }
  QueryEngine warm_engine;
  warm_engine.RegisterDataset("d", query, kBounds);
  const auto load = warm_engine.LoadCache(dir);
  EXPECT_TRUE(load.status.ok()) << load.status.ToString();
  EXPECT_GE(load.loaded, 3u);  // two basics + one overlay
  EXPECT_EQ(load.failed, 0u);
  const ServeResponse warm = warm_engine.Handle(request);
  ASSERT_EQ(warm.status, StatusCode::kOk);
  // The very first request after a warm start hits the persisted overlay.
  EXPECT_TRUE(warm.cache_hit);
  ExpectAnswersEqual(cold.answers, warm.answers);
}

// The file of the first warm-start artifact whose key starts with
// `prefix`, per the snapshot's manifest; empty if there is none.
std::string ArtifactFile(const std::string& dir, const std::string& prefix) {
  std::ifstream manifest(dir + "/manifest.txt");
  std::string line;
  while (std::getline(manifest, line)) {
    const size_t tab = line.find('\t');
    if (line.compare(tab + 1, prefix.size(), prefix) == 0) {
      return dir + "/" + line.substr(0, tab);
    }
  }
  return "";
}

// Each damage makes the overlay artifact unloadable. At format version 1
// (no checksum, counts trusted) a count of 2^64-1 aborted the process,
// and a lowered count or a flipped coordinate bit loaded as a fitting
// overlay.
TEST(ServeEngineTest, WarmStartSkipsCorruptArtifacts) {
  const MolqQuery query = TestQuery({15, 15}, 67);
  EngineRequest request;
  request.dataset = "d";
  const char* const damages[] = {"truncated to half", "count 2^64-1",
                                 "count lowered by one",
                                 "bit flipped in a record"};
  for (size_t d = 0; d < std::size(damages); ++d) {
    SCOPED_TRACE(damages[d]);
    const std::string dir = TmpDir("corrupt" + std::to_string(d));
    ServeResponse cold;
    {
      QueryEngine engine;
      engine.RegisterDataset("d", query, kBounds);
      cold = engine.Handle(request);
      ASSERT_EQ(cold.status, StatusCode::kOk);
      const Status saved = engine.SaveCache(dir);
      ASSERT_TRUE(saved.ok()) << saved.ToString();
    }
    const std::string victim = ArtifactFile(dir, "ovl/");
    ASSERT_FALSE(victim.empty());
    std::string bytes;
    {
      std::ifstream in(victim, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    // Header: u32 magic, u32 version, u64 record count; the first
    // record's mbr.min_y starts at byte 24.
    ASSERT_GT(bytes.size(), 32u);
    switch (d) {
      case 0:
        bytes.resize(bytes.size() / 2);
        break;
      case 1:
        bytes.replace(8, 8, 8, '\xff');
        break;
      case 2:
        ASSERT_NE(bytes[8], 0);  // the count's low byte
        --bytes[8];
        break;
      default:
        bytes[24] ^= 1;
    }
    {
      std::ofstream out(victim, std::ios::binary | std::ios::trunc);
      out << bytes;
    }

    QueryEngine engine;
    engine.RegisterDataset("d", query, kBounds);
    const auto load = engine.LoadCache(dir);
    EXPECT_TRUE(load.status.ok()) << load.status.ToString();
    EXPECT_EQ(load.failed, 1u);
    EXPECT_GE(load.loaded, 2u);
    // The engine still answers correctly, rebuilding what was damaged.
    const ServeResponse resp = engine.Handle(request);
    ASSERT_EQ(resp.status, StatusCode::kOk);
    EXPECT_FALSE(resp.cache_hit);
    ExpectAnswersEqual(cold.answers, resp.answers);
  }
}

TEST(ServeEngineTest, WarmStartSkipsArtifactsThatDoNotFitTheDataset) {
  // A well-formed MOVD file can still be wrong for the server it warms: an
  // OVR indexing an object the dataset does not have, a repeated group,
  // OVRs out of canonical order, or a key naming a dataset or version this
  // process did not register.
  const MolqQuery query = TestQuery({6, 6}, 71);
  const std::string dir = TmpDir("unfit");
  EngineRequest request;
  request.dataset = "d";
  ServeResponse cold;
  {
    QueryEngine engine;
    engine.RegisterDataset("d", query, kBounds);
    cold = engine.Handle(request);
    ASSERT_EQ(cold.status, StatusCode::kOk);
    const Status saved = engine.SaveCache(dir);
    ASSERT_TRUE(saved.ok()) << saved.ToString();
  }
  const std::string overlay_file = ArtifactFile(dir, "ovl/");
  ASSERT_FALSE(overlay_file.empty());
  StatusOr<Movd> saved = LoadMovd(overlay_file);
  ASSERT_TRUE(saved.has_value());
  const Movd original = *saved;
  ASSERT_FALSE(original.ovrs.empty());

  const auto load_into = [&](int registrations) {
    QueryEngine engine;
    for (int i = 0; i < registrations; ++i) {
      engine.RegisterDataset("d", query, kBounds);
    }
    const WarmLoadResult load = engine.LoadCache(dir);
    EXPECT_TRUE(load.status.ok()) << load.status.ToString();
    if (registrations == 1) {
      // The next SOLVE rebuilds the skipped overlay: the cold answer.
      const ServeResponse resp = engine.Handle(request);
      EXPECT_EQ(resp.status, StatusCode::kOk);
      EXPECT_EQ(resp.cache_hit, load.failed == 0);
      ExpectAnswersEqual(cold.answers, resp.answers);
    }
    return std::make_pair(load.loaded, load.failed);
  };
  using Counts = std::pair<size_t, size_t>;
  EXPECT_EQ(load_into(1), Counts(3, 0));
  // Unregistered dataset; a second registration publishes version 2.
  EXPECT_EQ(load_into(0), Counts(0, 3));
  EXPECT_EQ(load_into(2), Counts(0, 3));

  Movd tampered = original;
  tampered.ovrs[0].pois[0].object = 1000000;
  ASSERT_TRUE(SaveMovd(overlay_file, tampered).ok());
  EXPECT_EQ(load_into(1), Counts(2, 1));

  tampered = original;
  tampered.ovrs.push_back(tampered.ovrs[0]);
  ASSERT_TRUE(SaveMovd(overlay_file, tampered).ok());
  EXPECT_EQ(load_into(1), Counts(2, 1));

  // Two OVRs swapped: every group is still there once, but the overlay
  // patcher merges into the kept OVRs in place, which needs the order.
  ASSERT_GE(original.ovrs.size(), 2u);
  tampered = original;
  std::swap(tampered.ovrs[0], tampered.ovrs[1]);
  ASSERT_TRUE(SaveMovd(overlay_file, tampered).ok());
  EXPECT_EQ(load_into(1), Counts(2, 1));
}

TEST(ServeEngineTest, WarmStartSkipsArtifactsOfAnotherGridResolution) {
  // Every artifact key carries the weighted grid resolution. A snapshot
  // saved at another resolution holds keys no lookup of this engine
  // builds, so loading them would only fill the cache with dead entries.
  const MolqQuery query = TestQuery({12, 12}, 73);
  const std::string dir = TmpDir("grid");
  EngineRequest request;
  request.dataset = "d";
  ServeResponse cold;
  QueryEngineOptions saved_options;
  saved_options.exec.weighted_grid_resolution = 64;
  {
    QueryEngine engine(saved_options);
    engine.RegisterDataset("d", query, kBounds);
    cold = engine.Handle(request);
    ASSERT_EQ(cold.status, StatusCode::kOk);
    const Status saved = engine.SaveCache(dir);
    ASSERT_TRUE(saved.ok()) << saved.ToString();
  }
  size_t artifacts = 0;
  {
    std::ifstream manifest(dir + "/manifest.txt");
    std::string line;
    while (std::getline(manifest, line)) artifacts += line.empty() ? 0 : 1;
  }
  ASSERT_GE(artifacts, 3u);  // two basics + one overlay

  QueryEngineOptions options;
  options.exec.weighted_grid_resolution = 128;
  QueryEngine engine(options);
  engine.RegisterDataset("d", query, kBounds);
  const WarmLoadResult load = engine.LoadCache(dir);
  EXPECT_TRUE(load.status.ok()) << load.status.ToString();
  EXPECT_EQ(load.loaded, 0u);
  EXPECT_EQ(load.failed, artifacts);
  const ServeResponse resp = engine.Handle(request);
  ASSERT_EQ(resp.status, StatusCode::kOk);
  EXPECT_FALSE(resp.cache_hit);
  ExpectAnswersEqual(cold.answers, resp.answers);

  // The same snapshot still warms an engine at the resolution it was
  // saved at.
  QueryEngine same(saved_options);
  same.RegisterDataset("d", query, kBounds);
  EXPECT_EQ(same.LoadCache(dir).loaded, artifacts);
}

TEST(ServeEngineTest, WarmStartSkipsNonCanonicalKeys) {
  // "L0,01,2" names the layers {0,1,2}, but no lookup spells them that
  // way: an artifact saved under it would sit in the cache unreachable.
  const MolqQuery query = TestQuery({6, 6, 6}, 79);
  const std::string dir = TmpDir("canonical");
  EngineRequest request;
  request.dataset = "d";
  {
    QueryEngine engine;
    engine.RegisterDataset("d", query, kBounds);
    ASSERT_EQ(engine.Handle(request).status, StatusCode::kOk);
    const Status saved = engine.SaveCache(dir);
    ASSERT_TRUE(saved.ok()) << saved.ToString();
  }
  std::string manifest;
  {
    std::ifstream in(dir + "/manifest.txt");
    manifest.assign(std::istreambuf_iterator<char>(in), {});
  }
  const size_t at = manifest.find("/L0,1,2/rrb/");
  ASSERT_NE(at, std::string::npos);
  manifest.replace(at, 7, "/L0,01,2");
  ASSERT_NE(manifest.find("/L0,01,2/rrb/"), std::string::npos);
  {
    std::ofstream out(dir + "/manifest.txt", std::ios::trunc);
    out << manifest;
  }
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);
  const WarmLoadResult load = engine.LoadCache(dir);
  EXPECT_TRUE(load.status.ok()) << load.status.ToString();
  EXPECT_EQ(load.loaded, 3u);  // the three basics
  EXPECT_EQ(load.failed, 1u);
  EXPECT_FALSE(engine.Handle(request).cache_hit);
}

TEST(ServeEngineTest, WarmStartRejectsFileSavedUnderAnotherKey) {
  // Two objects near (1, 1) put the unclipped optimum outside the
  // CONSTRAIN boundary, so the clip and the RRB overlay over the same
  // layers answer differently. A manifest line that keeps the clip's key
  // but points at the overlay's file must be skipped, not served.
  MolqQuery query = TestQuery({6, 6}, 97);
  for (size_t s = 0; s < query.sets.size(); ++s) {
    SpatialObject near_corner;
    near_corner.location = {1.0 + 0.5 * static_cast<double>(s), 1.0};
    query.sets[s].objects.push_back(near_corner);
  }
  const std::string dir = TmpDir("bound_files");
  std::vector<EngineRequest> requests(2);
  for (EngineRequest& request : requests) {
    request.dataset = "d";
    request.layers = {0, 1};
  }
  ConstrainSpec constrain;
  constrain.constraint.boundary =
      Polygon({{10, 10}, {90, 10}, {90, 90}, {10, 90}});
  requests[1].op = constrain;
  const auto answer = [&](QueryEngine* engine, const EngineRequest& request) {
    const ServeResponse resp = engine->Handle(request);
    EXPECT_EQ(resp.status, StatusCode::kOk);
    return resp.answers.empty() ? Point{} : resp.answers[0].location;
  };
  Point clipped;
  Point unclipped;
  {
    QueryEngine engine;
    engine.RegisterDataset("d", query, kBounds);
    unclipped = answer(&engine, requests[0]);
    clipped = answer(&engine, requests[1]);
    const Status saved = engine.SaveCache(dir);
    ASSERT_TRUE(saved.ok()) << saved.ToString();
  }
  ASSERT_LT(unclipped.x, 10.0);
  ASSERT_GE(clipped.x, 10.0);
  // Point the clip's line at the RRB overlay's file.
  std::vector<std::string> lines;
  {
    std::ifstream in(dir + "/manifest.txt");
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  std::string overlay_file;
  for (const std::string& line : lines) {
    if (line.find("\tovl/") != std::string::npos) {
      overlay_file = line.substr(0, line.find('\t'));
    }
  }
  ASSERT_FALSE(overlay_file.empty());
  size_t swapped = 0;
  {
    std::ofstream out(dir + "/manifest.txt", std::ios::trunc);
    for (const std::string& line : lines) {
      if (line.find("\tcns/") == std::string::npos) {
        out << line << '\n';
        continue;
      }
      out << overlay_file << line.substr(line.find('\t')) << '\n';
      ++swapped;
    }
  }
  ASSERT_EQ(swapped, 1u);
  QueryEngine engine;
  engine.RegisterDataset("d", query, kBounds);
  const WarmLoadResult load = engine.LoadCache(dir);
  EXPECT_TRUE(load.status.ok()) << load.status.ToString();
  EXPECT_EQ(load.failed, 1u);
  EXPECT_EQ(load.loaded, lines.size() - 1);
  const Point warm = answer(&engine, requests[1]);
  EXPECT_EQ(warm.x, clipped.x);
  EXPECT_EQ(warm.y, clipped.y);
}

TEST(ServeEngineTest, UnknownDatasetStatusCodes) {
  // Queries on an unknown dataset are invalid requests; a mutation of one
  // has nothing to mutate.
  QueryEngine engine;
  EngineRequest solve;
  solve.dataset = "missing";
  EXPECT_EQ(engine.Handle(solve).status, StatusCode::kInvalidArgument);
  EngineRequest skyline = solve;
  skyline.op = SkylineSpec{MolqAlgorithm::kRrb};
  EXPECT_EQ(engine.Handle(skyline).status, StatusCode::kInvalidArgument);
  SiteMutation insert;
  insert.layer = 0;
  insert.location = Point{1, 1};
  EngineRequest ins = solve;
  ins.op = insert;
  EXPECT_EQ(engine.Handle(ins).status, StatusCode::kNotFound);
}

TEST(ServeEngineTest, LoadCacheReportsMissingDirectory) {
  QueryEngine engine;
  const auto load = engine.LoadCache(TmpDir("missing"));
  EXPECT_FALSE(load.status.ok());
  EXPECT_EQ(load.status.code(), StatusCode::kIoError);
  EXPECT_EQ(load.loaded, 0u);
}

// ---------------------------------------------------------------------------
// The determinism sweep: one transcript per (threads, cache) setting

/// The deterministic transcript entry for one response: status, snapshot
/// version, and — for queries — the timing-free answer JSON resolved
/// through the pinned snapshot. Mutation responses contribute their
/// version and layer patch size, but not the patched/dropped artifact
/// counts: those count what the cache held, which use_cache=0 leaves
/// empty.
std::string TranscriptEntry(const ServeResponse& resp) {
  std::string entry = StatusCodeName(resp.status);
  entry += "/v" + std::to_string(resp.version);
  if (resp.status != StatusCode::kOk) return entry;
  if (resp.is_mutation) {
    return entry + "/cells" + std::to_string(resp.mutation.recomputed_cells);
  }
  EXPECT_NE(resp.snapshot, nullptr);
  return entry + "/" + ResponseJson(resp.snapshot->query, resp, false);
}

/// Runs the five query verbs plus an INSERT/DELETE interleaving through
/// one engine, every query at `threads` and `use_cache`, and returns the
/// transcript.
std::vector<std::string> RunScript(QueryEngine* engine, int threads,
                                   bool use_cache) {
  std::vector<std::string> transcript;
  const auto envelope = [&](const std::string& id) {
    EngineRequest request;
    request.id = id;
    request.dataset = "ds";
    request.exec.threads = threads;
    request.use_cache = use_cache;
    return request;
  };
  const auto run = [&](const EngineRequest& request) {
    transcript.push_back(TranscriptEntry(engine->Handle(request)));
  };

  EngineRequest solve = envelope("solve");
  solve.layers = {0, 1};
  solve.op = SolveSpec{MolqAlgorithm::kRrb, 2};
  run(solve);

  EngineRequest skyline = envelope("skyline");
  skyline.op = SkylineSpec{MolqAlgorithm::kRrb};
  run(skyline);

  EngineRequest diverse = envelope("diverse");
  diverse.op = DiverseSpec{MolqAlgorithm::kRrb, 2, 8.0};
  run(diverse);

  EngineRequest constrain = envelope("constrain");
  constrain.layers = {0, 2};
  ConstrainSpec spec;
  spec.constraint.boundary =
      Polygon({{20, 20}, {80, 20}, {80, 80}, {20, 80}});
  constrain.op = spec;
  run(constrain);

  EngineRequest whatif = envelope("whatif");
  whatif.layers = {0, 1};
  whatif.op = WhatIfSpec{MolqAlgorithm::kRrb, 2, {{1.0, 1.0}, {1.5, 0.5}}};
  run(whatif);

  // Mutations interleave: insert, re-query, delete, re-query. With the
  // cache on, the re-queries read patched overlays; with it off, overlays
  // rebuilt from the mutated snapshot. Both must give the same bytes.
  SiteMutation insert;
  insert.kind = MutationKind::kInsert;
  insert.layer = 0;
  insert.location = Point{33.25, 61.75};
  EngineRequest ins = envelope("ins");
  ins.op = insert;
  run(ins);

  run(solve);
  run(skyline);

  SiteMutation erase = insert;
  erase.kind = MutationKind::kDelete;
  EngineRequest del = envelope("del");
  del.op = erase;
  run(del);

  run(skyline);
  run(whatif);
  return transcript;
}

TEST(ServeDeterminismTest, AnswersBitIdenticalAcrossThreadCounts) {
  QueryEngineOptions options;
  options.workers = 2;
  options.exec.weighted_grid_resolution = 64;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const MolqQuery query = TestQuery({10, 8, 7}, seed);
    std::vector<std::string> baseline;
    for (const bool use_cache : {true, false}) {
      for (const int threads : {1, 2, 4, 7}) {
        QueryEngine engine(options);
        engine.RegisterDataset("ds", query, kBounds);
        const std::vector<std::string> transcript =
            RunScript(&engine, threads, use_cache);
        if (baseline.empty()) {
          baseline = transcript;
          continue;
        }
        ASSERT_EQ(transcript.size(), baseline.size());
        for (size_t i = 0; i < transcript.size(); ++i) {
          EXPECT_EQ(transcript[i], baseline[i])
              << "seed " << seed << ", threads " << threads << ", cache "
              << use_cache << ", step " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace movd
