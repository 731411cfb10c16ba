#ifndef MOVD_SERVE_ARTIFACT_KEY_H_
#define MOVD_SERVE_ARTIFACT_KEY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "model/movd_model.h"

namespace movd {

/// The name of one cached serve artifact (DESIGN.md §8): every input that
/// affects the artifact's bytes, and nothing more. Its string form is
///
///   basic/<dataset>/v<version>/L<layer>/r<resolution>/w<tag>
///   ovl/<dataset>/v<version>/L<l1,l2,...>/<rrb|mbrb>/r<resolution>/w<tag>
///   cns/<dataset>/v<version>/L<l1,l2,...>/rrb/r<resolution>/w<tag>/c<hash>
///
/// Format() writes it; Parse() accepts exactly the strings Format() writes
/// for a well-formed key (Format(*Parse(s)) == s): decimals without
/// leading zeros, layers strictly ascending (one for a basic), a weight
/// tag of 'm'/'a' characters, a hash of 16 lowercase hex digits. Segments
/// are read from the right, so a dataset name may itself contain '/'.
struct ArtifactKey {
  enum class Kind : uint8_t {
    kBasic,    ///< one layer's diagram; carries regions and MBRs both
    kOverlay,  ///< the fold of the layers' basics under `mode`
    kClipped,  ///< the RRB overlay clipped to one constraint
  };

  Kind kind = Kind::kBasic;
  std::string dataset;
  uint64_t version = 0;         ///< the dataset snapshot's version
  std::vector<int32_t> layers;  ///< dataset layer indices, ascending
  /// Read for kOverlay only: a basic serves both modes, a clip is RRB.
  BoundaryMode mode = BoundaryMode::kRealRegion;
  int resolution = 0;           ///< weighted grid resolution
  std::string weight_tag;       ///< DatasetSnapshot::weight_tag
  std::string constraint_hash;  ///< kClipped only

  std::string Format() const;
  /// The key `key` spells; nullopt unless Format() would emit it.
  static std::optional<ArtifactKey> Parse(std::string_view key);

  bool operator==(const ArtifactKey&) const = default;
};

}  // namespace movd

#endif  // MOVD_SERVE_ARTIFACT_KEY_H_
