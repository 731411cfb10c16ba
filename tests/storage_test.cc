#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "model/movd_model.h"
#include "core/overlap.h"
#include "storage/movd_file.h"
#include "util/fnv.h"
#include "util/rng.h"
#include "voronoi/voronoi.h"

namespace movd {
namespace {

constexpr Rect kBounds(0, 0, 100, 100);

// Byte offsets in a saved basic MOVD whose first OVR has one poi with
// set and object below 128: the 16-byte header, then the first record's
// mbr (32 bytes), its poi count, set, object, piece count and the first
// piece's vertex count.
constexpr size_t kCountAt = 8;
constexpr size_t kPoiCountAt = 16 + 32;
constexpr size_t kObjectAt = kPoiCountAt + 2;
constexpr size_t kVertexCountAt = kPoiCountAt + 4;

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

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

std::string SavedBytes(const Movd& movd) {
  const std::string path = Tmp("saved.movd");
  EXPECT_TRUE(SaveMovd(path, movd).ok());
  std::string bytes = ReadFileBytes(path);
  std::remove(path.c_str());
  return bytes;
}

StatusOr<Movd> LoadBytes(const std::string& bytes) {
  const std::string path = Tmp("loaded.movd");
  WriteFileBytes(path, bytes);
  StatusOr<Movd> movd = LoadMovd(path);
  std::remove(path.c_str());
  return movd;
}

std::string LittleEndian(uint64_t v, int bytes) {
  std::string out;
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>(v >> (8 * i)));
  }
  return out;
}

std::string Varint(uint64_t v) {
  std::string out;
  for (; v >= 0x80; v >>= 7) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
  }
  out.push_back(static_cast<char>(v));
  return out;
}

// Recomputes the FNV-1a trailer over the bytes before it, so a test
// reaches the decode rule behind the checksum.
std::string Reseal(std::string bytes) {
  bytes.resize(bytes.size() - 8);
  return bytes + LittleEndian(Fnv1a(bytes), 8);
}

// The basic MOVD the decode-rule cases damage, saved.
std::string BasicBytes() {
  const std::string bytes = SavedBytes(RandomBasicMovd(10, 0, 205));
  EXPECT_EQ(bytes[kPoiCountAt], 1);
  EXPECT_GE(bytes[kVertexCountAt], 3);
  return bytes;
}

void ExpectDataLoss(const std::string& bytes, const std::string& reason) {
  const StatusOr<Movd> movd = LoadBytes(bytes);
  ASSERT_FALSE(movd.has_value());
  EXPECT_EQ(movd.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(movd.status().message().find(reason), std::string::npos)
      << movd.status().ToString();
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

// Varint widths at their boundaries, the largest index and doubles at the
// ends of their range come back bit for bit.
TEST(MovdFileTest, ExtremeValuesRoundTrip) {
  Ovr ovr;
  ovr.mbr = Rect(-0.1, -1e308, 1e308, 5e-324);
  ovr.pois = {{0, 127}, {128, INT32_MAX}};
  ovr.region = Region::FromPieces({ConvexPolygon::FromTrustedRing(
      {{-0.1, 0}, {1e308, 0}, {0, 5e-324}})});
  Movd movd;
  movd.ovrs = {ovr, Ovr{}};
  const StatusOr<Movd> loaded = LoadBytes(SavedBytes(movd));
  ASSERT_TRUE(loaded.has_value()) << loaded.status().ToString();
  ASSERT_EQ(loaded->ovrs.size(), 2u);
  const Ovr& back = loaded->ovrs[0];
  EXPECT_EQ(back.mbr.min_x, -0.1);
  EXPECT_EQ(back.mbr.min_y, -1e308);
  EXPECT_EQ(back.mbr.max_x, 1e308);
  EXPECT_EQ(back.mbr.max_y, 5e-324);
  EXPECT_EQ(back.pois, ovr.pois);
  ASSERT_EQ(back.region.pieces().size(), 1u);
  EXPECT_EQ(back.region.pieces()[0].vertices(),
            ovr.region.pieces()[0].vertices());
  EXPECT_TRUE(loaded->ovrs[1].pois.empty());
  EXPECT_TRUE(loaded->ovrs[1].region.Empty());
}

// The documented layout, byte for byte: header, one record, trailer.
TEST(MovdFileTest, WritesTheDocumentedLayout) {
  Ovr ovr;
  ovr.mbr = Rect(0, 0, 1, 2);
  ovr.pois = {{1, 300}};
  ovr.region = Region::FromPieces(
      {ConvexPolygon::FromTrustedRing({{0, 0}, {1, 0}, {0, 2}})});
  Movd movd;
  movd.ovrs = {ovr};
  const auto dbl = [](double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return LittleEndian(bits, 8);
  };
  std::string expected = std::string("DVOM", 4) + LittleEndian(2, 4) +
                         LittleEndian(1, 8) + dbl(0) + dbl(0) + dbl(1) +
                         dbl(2) + Varint(1) + Varint(1) + Varint(300) +
                         Varint(1) + Varint(3) + dbl(0) + dbl(0) + dbl(1) +
                         dbl(0) + dbl(0) + dbl(2);
  expected += LittleEndian(Fnv1a(expected), 8);
  EXPECT_EQ(SavedBytes(movd), expected);
  EXPECT_EQ(Varint(300), "\xac\x02");
}

TEST(MovdFileTest, EmptyMovd) {
  const std::string path = Tmp("empty.bin");
  ASSERT_TRUE(SaveMovd(path, Movd{}));
  const auto loaded = LoadMovd(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->ovrs.empty());
  std::remove(path.c_str());
}

TEST(MovdFileTest, MissingDirectoryIsAnIoError) {
  const std::string path = "/nonexistent/nope.movd";
  EXPECT_EQ(SaveMovd(path, Movd{}).code(), StatusCode::kIoError);
  EXPECT_EQ(LoadMovd(path).status().code(), StatusCode::kIoError);
}

TEST(MovdFileTest, RejectsGarbageHeader) {
  const std::string path = Tmp("garbage.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("this is not a movd file at all", f);
  std::fclose(f);
  EXPECT_EQ(LoadMovd(path).status().code(), StatusCode::kDataLoss);
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
  EXPECT_EQ(LoadMovd(path).status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(MovdFileTest, SerializedSizeMatchesBytesWritten) {
  const Movd movd = RandomBasicMovd(10, 0, 202);
  size_t expected = 0;
  for (const Ovr& ovr : movd.ovrs) expected += SerializedOvrSize(ovr);
  // 16-byte header, 8-byte checksum trailer.
  EXPECT_EQ(SavedBytes(movd).size(), 16 + expected + 8);
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

// A file with the right magic but another format version must be
// rejected with a structured failure, never a crash or a garbage MOVD.
TEST(MovdFileTest, RejectsVersionMismatch) {
  std::string bytes = BasicBytes();
  bytes.replace(4, 4, LittleEndian(999, 4));
  ExpectDataLoss(Reseal(bytes), "unsupported version");
}

// One case per decode rule. Each damages a valid file and re-seals the
// checksum, so the rule itself must catch it; the comment says what the
// unchecksummed version-1 reader did with the same damage.

// Version 1: std::length_error from reserve, the process aborted.
TEST(MovdFileTest, RecordCountPastTheEndIsDataLoss) {
  std::string bytes = BasicBytes();
  bytes.replace(kCountAt, 8, LittleEndian(UINT64_MAX, 8));
  ExpectDataLoss(Reseal(bytes), "count past the end");
}

// Version 1: loaded the first records as the whole MOVD.
TEST(MovdFileTest, LoweredRecordCountIsDataLoss) {
  std::string bytes = BasicBytes();
  bytes[kCountAt] = static_cast<char>(bytes[kCountAt] - 1);
  ExpectDataLoss(Reseal(bytes), "bytes after the last record");
}

// Version 1: std::length_error from reserve, the process aborted.
TEST(MovdFileTest, PoiCountPastTheEndIsDataLoss) {
  std::string bytes = BasicBytes();
  bytes.replace(kPoiCountAt, 1, Varint(uint64_t{1} << 62));
  ExpectDataLoss(Reseal(bytes), "count past the end");
}

// Version 1: DataLoss (its reader failed the varint).
TEST(MovdFileTest, ElevenByteVarintIsDataLoss) {
  std::string bytes = BasicBytes();
  bytes.replace(kPoiCountAt, 1, std::string("\x81") + std::string(9, '\x80') +
                                    std::string(1, '\0'));
  ExpectDataLoss(Reseal(bytes), "varint longer than 10 bytes");
}

// Version 1: loaded a poi count of 1 (the high bit shifted out).
TEST(MovdFileTest, VarintOverflowIsDataLoss) {
  std::string bytes = BasicBytes();
  bytes.replace(kPoiCountAt, 1,
                std::string("\x81") + std::string(8, '\x80') + "\x02");
  ExpectDataLoss(Reseal(bytes), "varint overflows 64 bits");
}

// Version 1: loaded (a poi count of 1 spelled in two bytes).
TEST(MovdFileTest, NonMinimalVarintIsDataLoss) {
  std::string bytes = BasicBytes();
  bytes.replace(kPoiCountAt, 1, std::string("\x81\x00", 2));
  ExpectDataLoss(Reseal(bytes), "varint not in minimal form");
}

// Version 1: loaded the object index as 1 (static_cast<int32_t>).
TEST(MovdFileTest, IndexAboveInt32MaxIsDataLoss) {
  std::string bytes = BasicBytes();
  bytes.replace(kObjectAt, 1, Varint((uint64_t{1} << 32) + 1));
  ExpectDataLoss(Reseal(bytes), "index above INT32_MAX");
}

// Version 1: DataLoss, but only because it misread the piece's vertices as
// the fields after them and ran past the end.
TEST(MovdFileTest, PieceOfTwoVerticesIsDataLoss) {
  std::string bytes = BasicBytes();
  bytes[kVertexCountAt] = 2;
  ExpectDataLoss(Reseal(bytes), "piece of fewer than 3 vertices");
}

// Version 1: loaded, ignoring the byte.
TEST(MovdFileTest, TrailingByteIsDataLoss) {
  std::string bytes = BasicBytes();
  bytes.insert(bytes.size() - 8, 1, '\0');
  ExpectDataLoss(Reseal(bytes), "bytes after the last record");
}

// A snapshot saved by the version-1 writer: the same bytes, version 1, no
// checksum. Warm start counts it failed and rebuilds the artifact.
TEST(MovdFileTest, VersionOneFileIsDataLoss) {
  std::string bytes = BasicBytes();
  bytes.replace(4, 4, LittleEndian(1, 4));
  bytes.resize(bytes.size() - 8);
  ExpectDataLoss(bytes, "unsupported version");
}

// Version 1: no checksum to flip; a flipped record byte loaded.
TEST(MovdFileTest, FlippedChecksumByteIsDataLoss) {
  std::string bytes = BasicBytes();
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
  ExpectDataLoss(bytes, "checksum mismatch");
}

}  // namespace
}  // namespace movd
