#include <cstdio>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "data/generate.h"

namespace movd {
namespace {

constexpr Rect kBounds(0, 0, 1000, 1000);

TEST(GenerateTest, UniformCountAndBounds) {
  GeneratorConfig c;
  c.distribution = Distribution::kUniform;
  c.count = 500;
  c.bounds = kBounds;
  c.seed = 7;
  const auto pts = GeneratePoints(c);
  EXPECT_EQ(pts.size(), 500u);
  for (const Point& p : pts) {
    EXPECT_TRUE(kBounds.Contains(p));
  }
}

TEST(GenerateTest, DeterministicInSeed) {
  GeneratorConfig c;
  c.count = 100;
  c.seed = 42;
  EXPECT_EQ(GeneratePoints(c), GeneratePoints(c));
  c.seed = 43;
  const auto other = GeneratePoints(c);
  GeneratorConfig c42 = c;
  c42.seed = 42;
  EXPECT_NE(GeneratePoints(c42), other);
}

TEST(GenerateTest, ClustersAreMoreConcentratedThanUniform) {
  GeneratorConfig u;
  u.count = 2000;
  u.bounds = kBounds;
  u.seed = 8;
  GeneratorConfig g = u;
  g.distribution = Distribution::kGaussianClusters;
  g.clusters = 4;
  g.spread_fraction = 0.01;
  const auto uniform = GeneratePoints(u);
  const auto clustered = GeneratePoints(g);
  // Compare mean nearest-grid-cell occupancy: clustered data occupies far
  // fewer distinct coarse cells.
  const auto occupied = [](const std::vector<Point>& pts) {
    std::vector<bool> cell(400, false);
    for (const Point& p : pts) {
      const int gx = std::min(19, static_cast<int>(p.x / 50.0));
      const int gy = std::min(19, static_cast<int>(p.y / 50.0));
      cell[gy * 20 + gx] = true;
    }
    int n = 0;
    for (const bool b : cell) n += b;
    return n;
  };
  EXPECT_LT(occupied(clustered), occupied(uniform) / 2);
}

TEST(GenerateTest, CorridorFollowsLines) {
  GeneratorConfig c;
  c.distribution = Distribution::kCorridor;
  c.count = 1000;
  c.bounds = kBounds;
  c.clusters = 2;
  c.spread_fraction = 0.005;
  c.seed = 9;
  const auto pts = GeneratePoints(c);
  EXPECT_EQ(pts.size(), 1000u);
  for (const Point& p : pts) EXPECT_TRUE(kBounds.Contains(p));
}

TEST(GeoNamesCatalogTest, MatchesThePaperCardinalities) {
  const auto& catalog = GeoNamesLikeCatalog();
  ASSERT_EQ(catalog.size(), 5u);
  EXPECT_EQ(catalog[0].name, "STM");
  EXPECT_EQ(catalog[0].full_count, 230762u);
  EXPECT_EQ(catalog[1].name, "CH");
  EXPECT_EQ(catalog[1].full_count, 225553u);
  EXPECT_EQ(catalog[2].name, "SCH");
  EXPECT_EQ(catalog[2].full_count, 200996u);
  EXPECT_EQ(catalog[3].name, "PPL");
  EXPECT_EQ(catalog[3].full_count, 166788u);
  EXPECT_EQ(catalog[4].name, "BLDG");
  EXPECT_EQ(catalog[4].full_count, 110289u);
}

TEST(GeoNamesCatalogTest, ClassesAreIndependentlySeeded) {
  const auto stm = SamplePoiClass("STM", 50, kBounds, 1);
  const auto ch = SamplePoiClass("CH", 50, kBounds, 1);
  EXPECT_NE(stm, ch);
  EXPECT_EQ(stm, SamplePoiClass("STM", 50, kBounds, 1));
}

TEST(CsvTest, RoundTripsExactDoubles) {
  const std::vector<Point> pts = {{0.1, 0.2},
                                  {1e-300, -1e300},
                                  {123456.789012345, -0.000123456789}};
  const std::string path = ::testing::TempDir() + "/pts.csv";
  ASSERT_TRUE(SavePointsCsv(path, pts));
  const auto loaded = LoadPointsCsv(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ((*loaded)[i], pts[i]) << i;
  }
  std::remove(path.c_str());
}

TEST(CsvTest, ToleratesHeaderRow) {
  const std::string path = ::testing::TempDir() + "/hdr.csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("x,y\n1.5,2.5\n", f);
  std::fclose(f);
  const auto loaded = LoadPointsCsv(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0], Point(1.5, 2.5));
  std::remove(path.c_str());
}

// Writes `rows` to a fresh file under the test temp dir and returns it.
std::string WriteCsv(const std::string& name, const char* rows) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  if (f != nullptr) {
    std::fputs(rows, f);
    std::fclose(f);
  }
  return path;
}

// Trailing junk, an extra field and non-finite values used to load
// (`1,2abc` as (1, 2)) and surfaced later as an empty overlay.
TEST(CsvTest, RejectsMalformedRows) {
  for (const char* row :
       {"1.5;2.5\n", "1,2abc\n", "1,2 x\n", "1,2,3\n", "1,2,\n", "nan,1\n",
        "1,inf\n", "1,1e999\n", "1,-1e999\n"}) {
    const std::string path = WriteCsv("bad.csv", row);
    EXPECT_FALSE(LoadPointsCsv(path).has_value()) << row;
    std::remove(path.c_str());
  }
  // Whitespace after the last number, a CR included, is not junk.
  const std::string path = WriteCsv("crlf.csv", "1,2\r\n3,4 \t\n");
  const auto loaded = LoadPointsCsv(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, (std::vector<Point>{{1, 2}, {3, 4}}));
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(LoadPointsCsv("/nonexistent/definitely/missing.csv"));
}

TEST(ObjectsCsvTest, RoundTripsWeights) {
  std::vector<SpatialObject> objects(3);
  objects[0] = {{1.5, 2.5}, 3.0, 0.5};
  objects[1] = {{-7.25, 0.0}, 1.0, 1.0};
  objects[2] = {{1e6, -1e-6}, 0.125, 8.0};
  const std::string path = ::testing::TempDir() + "/objs.csv";
  ASSERT_TRUE(SaveObjectsCsv(path, objects));
  const auto loaded = LoadObjectsCsv(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ((*loaded)[i].location, objects[i].location);
    EXPECT_EQ((*loaded)[i].type_weight, objects[i].type_weight);
    EXPECT_EQ((*loaded)[i].object_weight, objects[i].object_weight);
  }
  std::remove(path.c_str());
}

TEST(ObjectsCsvTest, WeightsDefaultToOne) {
  const std::string path = ::testing::TempDir() + "/plain.csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("x,y\n3.0,4.0\n5.0,6.0,2.5\n", f);
  std::fclose(f);
  const auto loaded = LoadObjectsCsv(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].type_weight, 1.0);
  EXPECT_EQ((*loaded)[0].object_weight, 1.0);
  EXPECT_EQ((*loaded)[1].type_weight, 2.5);
  EXPECT_EQ((*loaded)[1].object_weight, 1.0);
  std::remove(path.c_str());
}

TEST(ObjectsCsvTest, RejectsMalformedWeightRows) {
  for (const char* row :
       {"1.0,2.0,notanumber\n", "1,2abc\n", "1,2,3x\n", "1,2,3,4,5\n",
        "1,2,3,4,\n", "nan,1\n", "1,2,inf\n", "1,2,3,nan\n", "1,2,1e999\n"}) {
    const std::string path = WriteCsv("badw.csv", row);
    EXPECT_FALSE(LoadObjectsCsv(path).has_value()) << row;
    std::remove(path.c_str());
  }
  const std::string path = WriteCsv("crlfw.csv", "1,2,3,4\r\n");
  const auto loaded = LoadObjectsCsv(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].object_weight, 4.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace movd
