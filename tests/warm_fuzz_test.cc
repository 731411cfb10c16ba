// Deterministic corruption sweep over the warm-start manifest (`ctest -L
// fuzz`). A small 3-layer engine saves its cache; then each manifest line
// in turn is cut to every proper prefix and has every byte replaced by
// each character of a small alphabet of key separators, tags and digits,
// while the artifact files stay as saved. LoadCache must answer every
// manifest with a Status, never an abort. A line whose file is another
// line's (the clip's art_1 cut to art_0) fails the file's binding to its
// key. Every artifact it loads must sit
// under a key that ArtifactKey parses and formats back to itself, naming
// the registered dataset at its current version under the engine's grid
// resolution and weight tag. The engine must then answer exactly as a
// cold one does.

#include <cctype>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/artifact_key.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "util/rng.h"

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

MolqQuery ThreeLayers() {
  Rng rng(83);
  MolqQuery query;
  for (int s = 0; s < 3; ++s) {
    ObjectSet set;
    set.name = "layer" + std::to_string(s);
    for (int i = 0; i < 8; ++i) {
      SpatialObject obj;
      obj.location = {rng.Uniform(5, 95), rng.Uniform(5, 95)};
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  // Objects of layers 0 and 1 near (1, 1) put the RRB optimum over {0,1}
  // outside the CONSTRAIN boundary, so a clip line pointed at that
  // overlay's file (art_1 -> art_0) would change the answers.
  query.sets[0].objects.push_back({});
  query.sets[0].objects.back().location = {1.0, 1.0};
  query.sets[1].objects.push_back({});
  query.sets[1].objects.back().location = {1.5, 1.0};
  return query;
}

/// The requests that warm the saved cache, also asked after every load:
/// basics of all three layers, an RRB overlay over all of them, an MBRB
/// overlay over {0,2}, a CONSTRAIN clip over {0,1}, and a SOLVE over
/// {0,1} that reads the RRB overlay under the clip.
std::vector<EngineRequest> Requests() {
  std::vector<EngineRequest> requests(4);
  for (EngineRequest& request : requests) request.dataset = "d";
  requests[0].op = SolveSpec{MolqAlgorithm::kRrb, 2};
  requests[1].layers = {2, 0};
  requests[1].op = SolveSpec{MolqAlgorithm::kMbrb, 2};
  requests[2].layers = {0, 1};
  ConstrainSpec constrain;
  constrain.constraint.boundary =
      Polygon({{10, 10}, {90, 10}, {90, 90}, {10, 90}});
  requests[2].op = constrain;
  requests[3].layers = {0, 1};
  return requests;
}

/// Every request's deterministic answer bytes, one line each.
std::string Answers(QueryEngine* engine) {
  std::string out;
  for (const EngineRequest& request : Requests()) {
    const ServeResponse resp = engine->Handle(request);
    out += resp.snapshot == nullptr
               ? StatusCodeName(resp.status)
               : ResponseJson(resp.snapshot->query, resp,
                              /*include_timing=*/false);
    out += '\n';
  }
  return out;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

class WarmManifestFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = Tmp("warm");
    listing_ = Tmp("listing");
    QueryEngine engine;
    engine.RegisterDataset("d", query_, kBounds);
    cold_ = Answers(&engine);
    const Status saved = engine.SaveCache(dir_);
    ASSERT_TRUE(saved.ok()) << saved.ToString();
    lines_ = ReadLines(dir_ + "/manifest.txt");
    ASSERT_EQ(lines_.size(), 7u);  // 3 basics, 3 overlays, 1 clip
  }

  /// Loads the saved manifest with line `at` replaced by `variant` into a
  /// fresh engine and checks the oracle, failing the test on the first
  /// few manifests that break it. Returns the number of loaded artifacts.
  size_t Check(size_t at, const std::string& variant) {
    {
      std::ofstream out(dir_ + "/manifest.txt", std::ios::trunc);
      for (size_t i = 0; i < lines_.size(); ++i) {
        out << (i == at ? variant : lines_[i]) << '\n';
      }
    }
    QueryEngine engine;
    engine.RegisterDataset("d", query_, kBounds);
    const WarmLoadResult load = engine.LoadCache(dir_);
    const std::shared_ptr<const DatasetSnapshot> snap =
        engine.dataset_snapshot("d");
    // The loaded keys, listed through a second snapshot.
    const Status listed = engine.SaveCache(listing_);
    EXPECT_TRUE(listed.ok()) << listed.ToString();
    std::string problem;
    for (const std::string& line : ReadLines(listing_ + "/manifest.txt")) {
      // file, key, binding
      const size_t tab = line.find('\t');
      const std::string key =
          line.substr(tab + 1, line.rfind('\t') - tab - 1);
      const std::optional<ArtifactKey> parsed = ArtifactKey::Parse(key);
      if (!parsed || parsed->Format() != key || parsed->dataset != "d" ||
          parsed->version != snap->version ||
          parsed->resolution != resolution_ ||
          parsed->weight_tag != snap->weight_tag) {
        problem = "loaded the key '" + key + "'";
      }
    }
    if (problem.empty() && Answers(&engine) != cold_) {
      problem = "changed the answers";
    }
    if (!problem.empty() && ++bad_ <= 5) {
      ADD_FAILURE() << "line " << at << " as '" << variant << "' ("
                    << load.status.ToString() << ") " << problem;
    }
    return load.loaded;
  }

  const int resolution_ = QueryEngineOptions().exec.weighted_grid_resolution;
  const MolqQuery query_ = ThreeLayers();
  std::string dir_;
  std::string listing_;
  std::string cold_;
  std::vector<std::string> lines_;
  size_t bad_ = 0;
};

TEST_F(WarmManifestFuzzTest, SeedsLoadWhole) {
  for (size_t at = 0; at < lines_.size(); ++at) {
    EXPECT_EQ(Check(at, lines_[at]), lines_.size());
  }
}

TEST_F(WarmManifestFuzzTest, EveryProperPrefix) {
  size_t manifests = 0;
  size_t whole = 0;
  for (size_t at = 0; at < lines_.size(); ++at) {
    for (size_t len = 0; len < lines_[at].size(); ++len) {
      ++manifests;
      whole += Check(at, lines_[at].substr(0, len)) == lines_.size();
    }
  }
  // A cut line names no artifact this engine builds.
  EXPECT_EQ(whole, 0u);
  std::printf("%zu manifests, %zu loaded whole\n", manifests, whole);
}

TEST_F(WarmManifestFuzzTest, EverySingleByteReplacement) {
  constexpr char kAlphabet[] = {'/', ',', '0', '9', 'v', 'L',
                                'r', 'w', 'c', '\t', 'x'};
  size_t manifests = 0;
  size_t whole = 0;
  for (size_t at = 0; at < lines_.size(); ++at) {
    for (size_t pos = 0; pos < lines_[at].size(); ++pos) {
      for (const char c : kAlphabet) {
        if (lines_[at][pos] == c) continue;
        std::string variant = lines_[at];
        variant[pos] = c;
        ++manifests;
        whole += Check(at, variant) == lines_.size();
      }
    }
  }
  std::printf("%zu manifests, %zu loaded whole\n", manifests, whole);
}

}  // namespace
}  // namespace movd
