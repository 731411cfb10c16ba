#include "serve/artifact_key.h"

#include <charconv>
#include <iterator>
#include <system_error>

namespace movd {
namespace {

constexpr std::string_view kKindNames[] = {"basic", "ovl", "cns"};

/// `s` exactly as std::to_string spells a T: no sign unless negative,
/// no leading zeros, in range.
template <typename T>
bool ParseCanonical(std::string_view s, T* out) {
  T value{};
  const char* end = s.data() + s.size();
  const auto parsed = std::from_chars(s.data(), end, value);
  if (parsed.ec != std::errc() || parsed.ptr != end ||
      std::to_string(value) != s) {
    return false;
  }
  *out = value;
  return true;
}

/// "<l1>,<l2>,...": non-negative, strictly ascending.
bool ParseLayers(std::string_view s, std::vector<int32_t>* layers) {
  while (true) {
    const size_t comma = s.find(',');
    int32_t layer = 0;
    if (!ParseCanonical(s.substr(0, comma), &layer) || layer < 0 ||
        (!layers->empty() && layer <= layers->back())) {
      return false;
    }
    layers->push_back(layer);
    if (comma == std::string_view::npos) return true;
    s.remove_prefix(comma + 1);
  }
}

bool IsWeightTag(std::string_view s) {
  return !s.empty() && s.find_first_not_of("am") == std::string_view::npos;
}

bool IsConstraintHash(std::string_view s) {
  return s.size() == 16 &&
         s.find_first_not_of("0123456789abcdef") == std::string_view::npos;
}

}  // namespace

std::string ArtifactKey::Format() const {
  std::string out(kKindNames[static_cast<size_t>(kind)]);
  out += '/';
  out += dataset;
  out += "/v" + std::to_string(version) + "/L";
  for (size_t i = 0; i < layers.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(layers[i]);
  }
  if (kind == Kind::kOverlay && mode == BoundaryMode::kMbr) {
    out += "/mbrb";
  } else if (kind != Kind::kBasic) {
    out += "/rrb";
  }
  out += "/r" + std::to_string(resolution) + "/w" + weight_tag;
  if (kind == Kind::kClipped) out += "/c" + constraint_hash;
  return out;
}

std::optional<ArtifactKey> ArtifactKey::Parse(std::string_view key) {
  const size_t kind_end = key.find('/');
  if (kind_end == std::string_view::npos) return std::nullopt;
  ArtifactKey out;
  size_t kind = 0;
  while (kind < std::size(kKindNames) &&
         key.substr(0, kind_end) != kKindNames[kind]) {
    ++kind;
  }
  if (kind == std::size(kKindNames)) return std::nullopt;
  out.kind = static_cast<Kind>(kind);

  // Segments come off the right end; what is left after the version, past
  // the '/' that ends the kind, is the dataset.
  std::string_view rest = key.substr(kind_end);
  const auto pop = [&rest](char tag, std::string_view* segment) {
    const size_t slash = rest.rfind('/');
    if (slash == 0 || slash == std::string_view::npos) return false;
    *segment = rest.substr(slash + 1);
    rest = rest.substr(0, slash);
    if (tag == '\0') return true;
    if (!segment->starts_with(tag)) return false;
    segment->remove_prefix(1);
    return true;
  };
  std::string_view hash;
  std::string_view tag;
  std::string_view resolution;
  std::string_view mode;
  std::string_view layers;
  std::string_view version;
  if ((out.kind == Kind::kClipped && !pop('c', &hash)) || !pop('w', &tag) ||
      !pop('r', &resolution) ||
      (out.kind != Kind::kBasic && !pop('\0', &mode)) ||
      !pop('L', &layers) || !pop('v', &version)) {
    return std::nullopt;
  }
  out.dataset = rest.substr(1);

  if (!ParseCanonical(version, &out.version) ||
      !ParseLayers(layers, &out.layers) ||
      (out.kind == Kind::kBasic && out.layers.size() != 1) ||
      !ParseCanonical(resolution, &out.resolution) || !IsWeightTag(tag) ||
      (out.kind == Kind::kClipped && !IsConstraintHash(hash))) {
    return std::nullopt;
  }
  if (out.kind == Kind::kOverlay && mode == "mbrb") {
    out.mode = BoundaryMode::kMbr;
  } else if (mode != (out.kind == Kind::kBasic ? "" : "rrb")) {
    return std::nullopt;
  }
  out.weight_tag = tag;
  out.constraint_hash = hash;
  return out;
}

}  // namespace movd
