#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "model/movd_model.h"
#include "core/overlap.h"
#include "storage/io.h"
#include "storage/movd_file.h"
#include "util/rng.h"
#include "voronoi/voronoi.h"

namespace movd {
namespace {

constexpr Rect kBounds(0, 0, 100, 100);

// Temp path unique to the running test: parameterized instances of one
// test share file names, and ctest runs them as separate concurrent
// processes, so a bare TempDir() + name lets them clobber each other's
// files mid-test.
std::string Tmp(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string tag = info == nullptr ? std::string("unknown")
                                    : std::string(info->test_suite_name()) +
                                          "_" + info->name();
  for (char& c : tag) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return ::testing::TempDir() + "/" + tag + "_" + name;
}

Movd RandomBasicMovd(size_t sites, int32_t set, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  for (size_t i = 0; i < sites; ++i) {
    pts.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  const auto vd = VoronoiDiagram::Build(pts, kBounds);
  std::vector<int32_t> ids(vd.sites().size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int32_t>(i);
  return MovdFromVoronoi(vd, set, ids);
}

std::vector<std::string> Canonicalize(const Movd& movd) {
  std::vector<std::string> keys;
  for (const Ovr& ovr : movd.ovrs) {
    std::string k;
    for (const PoiRef& p : ovr.pois) {
      k += std::to_string(p.set) + ":" + std::to_string(p.object) + ";";
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "|%.9f,%.9f,%.9f,%.9f|%zu", ovr.mbr.min_x,
                  ovr.mbr.min_y, ovr.mbr.max_x, ovr.mbr.max_y,
                  ovr.region.VertexCount());
    k += buf;
    keys.push_back(std::move(k));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(BinaryIoTest, PrimitivesRoundTrip) {
  const std::string path = Tmp("prim.bin");
  {
    BinaryWriter w(path);
    ASSERT_TRUE(w.ok());
    w.WriteU32(0xdeadbeef);
    w.WriteU64(0x0123456789abcdefULL);
    w.WriteVarint(0);
    w.WriteVarint(127);
    w.WriteVarint(128);
    w.WriteVarint(UINT64_MAX);
    w.WriteDouble(-0.1);
    w.WriteDouble(1e308);
    EXPECT_TRUE(w.Close());
  }
  BinaryReader r(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.ReadVarint(), 0u);
  EXPECT_EQ(r.ReadVarint(), 127u);
  EXPECT_EQ(r.ReadVarint(), 128u);
  EXPECT_EQ(r.ReadVarint(), UINT64_MAX);
  EXPECT_EQ(r.ReadDouble(), -0.1);
  EXPECT_EQ(r.ReadDouble(), 1e308);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEof());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, MissingFileIsNotOk) {
  BinaryReader r("/nonexistent/nope.bin");
  EXPECT_FALSE(r.ok());
  BinaryWriter w("/nonexistent/nope.bin");
  EXPECT_FALSE(w.ok());
}

TEST(MovdFileTest, RoundTripsMovd) {
  const Movd movd = RandomBasicMovd(25, 3, 201);
  const std::string path = Tmp("movd.bin");
  ASSERT_TRUE(SaveMovd(path, movd));
  const auto loaded = LoadMovd(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(Canonicalize(movd), Canonicalize(*loaded));
  // Regions themselves survive, not just MBRs.
  double area = 0.0;
  for (const Ovr& ovr : loaded->ovrs) area += ovr.region.Area();
  EXPECT_NEAR(area, kBounds.Area(), 1e-6 * kBounds.Area());
  std::remove(path.c_str());
}

TEST(MovdFileTest, EmptyMovd) {
  const std::string path = Tmp("empty.bin");
  ASSERT_TRUE(SaveMovd(path, Movd{}));
  const auto loaded = LoadMovd(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->ovrs.empty());
  std::remove(path.c_str());
}

TEST(MovdFileTest, RejectsGarbageHeader) {
  const std::string path = Tmp("garbage.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("this is not a movd file at all", f);
  std::fclose(f);
  EXPECT_FALSE(LoadMovd(path).has_value());
  std::remove(path.c_str());
}

TEST(MovdFileTest, TruncatedFileFailsGracefully) {
  const Movd movd = RandomBasicMovd(15, 0, 207);
  const std::string path = Tmp("trunc.bin");
  ASSERT_TRUE(SaveMovd(path, movd));
  // Chop the file in the middle of a record.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  MovdFileReader reader(path);
  EXPECT_TRUE(reader.ok());  // header intact
  size_t read = 0;
  while (reader.Next().has_value()) ++read;
  EXPECT_LT(read, movd.ovrs.size());
  EXPECT_FALSE(reader.ok());  // the failure is reported, not hidden
  EXPECT_FALSE(LoadMovd(path).has_value());
  std::remove(path.c_str());
}

TEST(MovdFileTest, SerializedSizeMatchesBytesWritten) {
  const Movd movd = RandomBasicMovd(10, 0, 202);
  size_t expected = 0;
  for (const Ovr& ovr : movd.ovrs) expected += SerializedOvrSize(ovr);
  const std::string path = Tmp("sized.bin");
  ASSERT_TRUE(SaveMovd(path, movd));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long file_size = std::ftell(f);
  std::fclose(f);
  EXPECT_EQ(static_cast<size_t>(file_size), expected + 16);  // header = 16
  std::remove(path.c_str());
}

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string bytes;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

// The serving engine persists overlap artifacts (not just basic MOVDs)
// through SaveMovd/LoadMovd for warm starts; the overlay must survive a
// save → load → save cycle byte-identically, or warm-started answers
// could drift from cold ones.
TEST(MovdFileTest, OverlayArtifactRoundTripIsByteIdentical) {
  const Movd a = RandomBasicMovd(20, 0, 301);
  const Movd b = RandomBasicMovd(15, 1, 302);
  const Movd overlay = Overlap(a, b, BoundaryMode::kRealRegion);
  ASSERT_GT(overlay.ovrs.size(), a.ovrs.size());

  const std::string path1 = Tmp("overlay1.movd");
  const std::string path2 = Tmp("overlay2.movd");
  ASSERT_TRUE(SaveMovd(path1, overlay));
  const auto loaded = LoadMovd(path1);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->ovrs.size(), overlay.ovrs.size());
  EXPECT_EQ(Canonicalize(overlay), Canonicalize(*loaded));
  ASSERT_TRUE(SaveMovd(path2, *loaded));

  const std::string bytes1 = ReadFileBytes(path1);
  const std::string bytes2 = ReadFileBytes(path2);
  ASSERT_FALSE(bytes1.empty());
  EXPECT_EQ(bytes1, bytes2);
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

// A file with the right magic but a future format version must be
// rejected with a structured failure (nullopt / !ok()), never a crash or
// a garbage MOVD.
TEST(MovdFileTest, RejectsVersionMismatch) {
  const Movd movd = RandomBasicMovd(10, 0, 303);
  const std::string path = Tmp("version.movd");
  ASSERT_TRUE(SaveMovd(path, movd));
  // Header layout: u32 magic, u32 version, u64 count (little-endian).
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 4, SEEK_SET), 0);
  const uint32_t bad_version = 999;
  ASSERT_EQ(std::fwrite(&bad_version, sizeof(bad_version), 1, f), 1u);
  std::fclose(f);

  MovdFileReader reader(path);
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_FALSE(LoadMovd(path).has_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace movd
