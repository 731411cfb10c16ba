// End-to-end integration: the CSV data path feeding the full query engine
// (what examples/molq_cli does), all algorithms and extensions agreeing on
// one realistic workload.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/molq.h"
#include "core/topk.h"
#include "core/weighted_distance.h"
#include "data/csv.h"
#include "data/generate.h"
#include "movd_test_util.h"
#include "storage/movd_file.h"

namespace movd {
namespace {

constexpr Rect kWorld(0, 0, 10000, 10000);

std::string Tmp(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

MolqQuery LoadQueryViaCsv() {
  // Generate three GeoNames-like layers, round-trip each through CSV, and
  // assemble the query — the exact CLI data path.
  MolqQuery query;
  const char* classes[] = {"STM", "CH", "SCH"};
  const double type_weights[] = {2.0, 1.0, 3.0};
  for (int s = 0; s < 3; ++s) {
    const auto points = SamplePoiClass(classes[s], 40, kWorld, 77 + s);
    std::vector<SpatialObject> objects;
    for (const Point& p : points) {
      SpatialObject obj;
      obj.location = p;
      obj.type_weight = type_weights[s];
      objects.push_back(obj);
    }
    const std::string path = Tmp(std::string("itest_") + classes[s] + ".csv");
    EXPECT_TRUE(SaveObjectsCsv(path, objects));
    const auto loaded = LoadObjectsCsv(path);
    EXPECT_TRUE(loaded.has_value());
    ObjectSet set;
    set.name = classes[s];
    set.objects = *loaded;
    query.sets.push_back(std::move(set));
    std::remove(path.c_str());
  }
  return query;
}

TEST(IntegrationTest, FullPipelineAgreesAcrossAllPaths) {
  const MolqQuery query = LoadQueryViaCsv();

  MolqOptions opts;
  opts.epsilon = 1e-6;
  opts.algorithm = MolqAlgorithm::kSsc;
  const auto ssc = SolveMolq(query, kWorld, opts);

  opts.algorithm = MolqAlgorithm::kRrb;
  const auto rrb = SolveMolq(query, kWorld, opts);
  // SolveMolq prunes hopeless combinations during the overlap; the staged
  // unpruned pipeline must give the same answer bit for bit.
  ExpectSameAnswer(SolveStagedUnpruned(query, kWorld, opts), rrb);

  opts.algorithm = MolqAlgorithm::kMbrb;
  opts.dedup_combinations = true;
  const auto mbrb = SolveMolq(query, kWorld, opts);
  ExpectSameAnswer(SolveStagedUnpruned(query, kWorld, opts), mbrb);

  const double tol = 1e-5 * ssc.cost + 1e-9;
  EXPECT_NEAR(rrb.cost, ssc.cost, tol);
  EXPECT_NEAR(mbrb.cost, ssc.cost, tol);

  // Top-1 of the top-k API matches too.
  const auto topk = SolveMolqTopK(query, kWorld, 3, MolqOptions{});
  ASSERT_GE(topk.ranked.size(), 1u);
  EXPECT_NEAR(topk.ranked[0].cost, ssc.cost, 1e-3 * ssc.cost);

  // The reported cost is a true MWGD value at the reported location.
  EXPECT_NEAR(MinWeightedGroupDistance(query, rrb.location), rrb.cost, tol);
}

TEST(IntegrationTest, DiskPipelineMatchesInMemoryEndToEnd) {
  const MolqQuery query = LoadQueryViaCsv();
  MolqOptions opts;
  opts.epsilon = 1e-6;
  // Round-trip every basic MOVD through the MOVD file format, then overlap
  // the loaded basics in memory and optimize: the answer must equal the
  // in-memory pipeline's bit for bit.
  const std::vector<Movd> basic = BuildAllBasic(query, kWorld, opts);
  std::vector<Movd> loaded;
  for (size_t s = 0; s < basic.size(); ++s) {
    const std::string path = Tmp("it_basic" + std::to_string(s) + ".bin");
    ASSERT_TRUE(SaveMovd(path, basic[s]).ok());
    StatusOr<Movd> back = LoadMovd(path);
    std::remove(path.c_str());
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(BitIdentical(basic[s], *back)) << "set " << s;
    loaded.push_back(std::move(*back));
  }
  OptimizerOptions oopts;
  oopts.epsilon = opts.epsilon;
  oopts.use_cost_bound = opts.use_cost_bound;
  oopts.use_two_point_prefilter = opts.use_two_point_prefilter;
  oopts.dedup_combinations = opts.dedup_combinations;
  oopts.exec = opts.exec;
  const OptimizerResult via_disk = OptimizeMovd(
      query, OverlapAll(loaded, BoundaryMode::kRealRegion), oopts);
  ExpectSameAnswer(via_disk, SolveMolq(query, kWorld, opts));
}

}  // namespace
}  // namespace movd
