// Deterministic corruption sweep over the MOVD file codec (`ctest -L
// fuzz`). Two small saved MOVDs, a basic diagram and an RRB overlay, are
// cut to every proper prefix and have every single bit flipped, first as
// written and then with the checksum re-sealed so the flip reaches the
// decoder. LoadMovd must answer each with a DataLoss status or, for a
// re-sealed flip, with a MOVD that SaveMovd writes back to the same bytes:
// never an abort, a hang or a MOVD the file does not spell.

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/overlap.h"
#include "model/movd_model.h"
#include "storage/movd_file.h"
#include "util/fnv.h"
#include "util/rng.h"
#include "voronoi/voronoi.h"

namespace movd {
namespace {

constexpr Rect kBounds(0, 0, 100, 100);

std::string Tmp(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string tag = std::string(info->test_suite_name()) + "_" + info->name();
  for (char& c : tag) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return ::testing::TempDir() + "/" + tag + "_" + name;
}

Movd BasicMovd(size_t sites, int32_t set, uint64_t seed) {
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

std::string ReadFileBytes(const std::string& path) {
  std::string bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

bool WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok;
}

std::string Reseal(std::string bytes) {
  bytes.resize(bytes.size() - 8);
  const uint64_t h = Fnv1a(bytes);
  for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<char>(h >> (8 * i)));
  return bytes;
}

enum class Input { kBasic, kOverlay };

class MovdFileFuzzTest : public ::testing::TestWithParam<Input> {
 protected:
  void SetUp() override {
    path_ = Tmp("case.movd");
    const Movd movd =
        GetParam() == Input::kBasic
            ? BasicMovd(6, 0, 401)
            : Overlap(BasicMovd(5, 0, 402), BasicMovd(4, 1, 403),
                      BoundaryMode::kRealRegion);
    ASSERT_TRUE(SaveMovd(path_, movd).ok());
    bytes_ = ReadFileBytes(path_);
    ASSERT_GT(bytes_.size(), 24u);
  }

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".resaved").c_str());
  }

  // LoadMovd of `bytes` through the case file.
  StatusOr<Movd> Load(const std::string& bytes) {
    EXPECT_TRUE(WriteFileBytes(path_, bytes));
    return LoadMovd(path_);
  }

  // The bytes SaveMovd writes for `movd`.
  std::string Resave(const Movd& movd) {
    const std::string path = path_ + ".resaved";
    EXPECT_TRUE(SaveMovd(path, movd).ok());
    return ReadFileBytes(path);
  }

  std::string Flipped(size_t bit) const {
    std::string bytes = bytes_;
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    return bytes;
  }

  std::string path_;
  std::string bytes_;
};

TEST_P(MovdFileFuzzTest, EveryProperPrefixIsDataLoss) {
  size_t bad = 0;
  for (size_t len = 0; len < bytes_.size(); ++len) {
    const StatusOr<Movd> movd = Load(bytes_.substr(0, len));
    if (movd.status().code() != StatusCode::kDataLoss) {
      ADD_FAILURE_AT(__FILE__, __LINE__) << "prefix of " << len << " bytes";
      if (++bad == 5) break;
    }
  }
  std::printf("%zu prefixes of a %zu-byte file\n", bytes_.size(),
              bytes_.size());
}

TEST_P(MovdFileFuzzTest, EveryBitFlipIsDataLoss) {
  size_t bad = 0;
  for (size_t bit = 0; bit < bytes_.size() * 8; ++bit) {
    const StatusOr<Movd> movd = Load(Flipped(bit));
    if (movd.status().code() != StatusCode::kDataLoss) {
      ADD_FAILURE_AT(__FILE__, __LINE__) << "bit " << bit;
      if (++bad == 5) break;
    }
  }
  std::printf("%zu bit flips\n", bytes_.size() * 8);
}

TEST_P(MovdFileFuzzTest, ResealedBitFlipLoadsOnlyWhatSavesBack) {
  size_t bad = 0;
  size_t accepted = 0;
  for (size_t bit = 0; bit < bytes_.size() * 8; ++bit) {
    const std::string bytes = Reseal(Flipped(bit));
    const StatusOr<Movd> movd = Load(bytes);
    bool fine = movd.status().code() == StatusCode::kDataLoss;
    if (movd.has_value()) {
      ++accepted;
      fine = Resave(*movd) == bytes;
    }
    if (!fine) {
      ADD_FAILURE_AT(__FILE__, __LINE__)
          << "bit " << bit << ": " << movd.status().ToString();
      if (++bad == 5) break;
    }
  }
  std::printf("%zu re-sealed bit flips, %zu loaded and saved back\n",
              bytes_.size() * 8, accepted);
}

INSTANTIATE_TEST_SUITE_P(Inputs, MovdFileFuzzTest,
                         ::testing::Values(Input::kBasic, Input::kOverlay),
                         [](const auto& info) {
                           return info.param == Input::kBasic ? "basic"
                                                              : "overlay";
                         });

}  // namespace
}  // namespace movd
