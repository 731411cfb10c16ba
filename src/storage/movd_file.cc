#include "storage/movd_file.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <vector>

#include "util/fnv.h"

namespace movd {
namespace {

constexpr uint32_t kMagic = 0x4d4f5644;  // "MOVD"
constexpr uint32_t kVersion = 2;
constexpr size_t kHeaderSize = 4 + 4 + 8;  // magic + version + count
constexpr size_t kTrailerSize = 8;         // FNV-1a

// Least bytes one item can take, which bounds every count before it is
// trusted with a reserve.
constexpr size_t kMinRecordBytes = 4 * 8 + 1 + 1;  // mbr, #pois, #pieces
constexpr size_t kMinPoiBytes = 2;
constexpr size_t kVertexBytes = 16;
constexpr size_t kMinPieceVertices = 3;
constexpr size_t kMinPieceBytes = 1 + kMinPieceVertices * kVertexBytes;

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

void PutFixed(std::string* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>(v >> (8 * i)));
  }
}

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void PutDouble(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed(out, bits, 8);
}

// Bounds-checked reader over the decoded span. The first failure records
// its reason and pins the cursor at the end, so every later read fails
// too and returns zero.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  const char* error() const { return error_; }
  size_t remaining() const { return bytes_.size() - pos_; }

  uint64_t Fixed(int bytes) {
    if (remaining() < static_cast<size_t>(bytes)) return Fail("truncated");
    uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_++]))
           << (8 * i);
    }
    return v;
  }

  double Double() {
    const uint64_t bits = Fixed(8);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  // LEB128 as PutVarint writes it: at most 10 bytes, within 64 bits, and
  // no redundant high zero group.
  uint64_t Varint() {
    uint64_t v = 0;
    for (int i = 0; i < 10; ++i) {
      if (remaining() == 0) return Fail("truncated");
      const uint8_t byte = static_cast<uint8_t>(bytes_[pos_++]);
      v |= static_cast<uint64_t>(byte & 0x7f) << (7 * i);
      if ((byte & 0x80) == 0) {
        if (i > 0 && byte == 0) return Fail("varint not in minimal form");
        if (i == 9 && byte > 1) return Fail("varint overflows 64 bits");
        return v;
      }
    }
    return Fail("varint longer than 10 bytes");
  }

  // A count of items of at least `min_bytes` each that the rest of the
  // input can hold.
  uint64_t Count(size_t min_bytes) {
    const uint64_t n = Varint();
    if (n > remaining() / min_bytes) return Fail("count past the end");
    return n;
  }

  int32_t Index() {
    const uint64_t v = Varint();
    if (v > INT32_MAX) {
      Fail("index above INT32_MAX");
      return 0;
    }
    return static_cast<int32_t>(v);
  }

  uint64_t Fail(const char* why) {
    if (error_ == nullptr) error_ = why;
    pos_ = bytes_.size();
    return 0;
  }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
  const char* error_ = nullptr;
};

void PutOvr(std::string* out, const Ovr& ovr) {
  PutDouble(out, ovr.mbr.min_x);
  PutDouble(out, ovr.mbr.min_y);
  PutDouble(out, ovr.mbr.max_x);
  PutDouble(out, ovr.mbr.max_y);
  PutVarint(out, ovr.pois.size());
  for (const PoiRef& p : ovr.pois) {
    PutVarint(out, static_cast<uint32_t>(p.set));
    PutVarint(out, static_cast<uint32_t>(p.object));
  }
  PutVarint(out, ovr.region.pieces().size());
  for (const ConvexPolygon& piece : ovr.region.pieces()) {
    PutVarint(out, piece.VertexCount());
    for (const Point& v : piece.vertices()) {
      PutDouble(out, v.x);
      PutDouble(out, v.y);
    }
  }
}

Ovr GetOvr(Cursor* in) {
  Ovr ovr;
  ovr.mbr.min_x = in->Double();
  ovr.mbr.min_y = in->Double();
  ovr.mbr.max_x = in->Double();
  ovr.mbr.max_y = in->Double();
  const uint64_t num_pois = in->Count(kMinPoiBytes);
  ovr.pois.reserve(num_pois);
  for (uint64_t i = 0; i < num_pois; ++i) {
    PoiRef ref;
    ref.set = in->Index();
    ref.object = in->Index();
    ovr.pois.push_back(ref);
  }
  const uint64_t num_pieces = in->Count(kMinPieceBytes);
  std::vector<ConvexPolygon> pieces;
  pieces.reserve(num_pieces);
  for (uint64_t i = 0; i < num_pieces; ++i) {
    const uint64_t num_verts = in->Count(kVertexBytes);
    if (num_verts < kMinPieceVertices) {
      in->Fail("piece of fewer than 3 vertices");
      break;
    }
    std::vector<Point> verts;
    verts.reserve(num_verts);
    for (uint64_t v = 0; v < num_verts; ++v) {
      const double x = in->Double();
      const double y = in->Double();
      verts.push_back({x, y});
    }
    pieces.push_back(ConvexPolygon::FromTrustedRing(std::move(verts)));
  }
  ovr.region = Region::FromPieces(std::move(pieces));
  return ovr;
}

}  // namespace

size_t SerializedOvrSize(const Ovr& ovr) {
  size_t bytes = 4 * 8;  // mbr
  bytes += VarintSize(ovr.pois.size());
  for (const PoiRef& p : ovr.pois) {
    bytes += VarintSize(static_cast<uint32_t>(p.set)) +
             VarintSize(static_cast<uint32_t>(p.object));
  }
  bytes += VarintSize(ovr.region.pieces().size());
  for (const ConvexPolygon& piece : ovr.region.pieces()) {
    bytes += VarintSize(piece.VertexCount()) +
             piece.VertexCount() * kVertexBytes;
  }
  return bytes;
}

Status SaveMovd(const std::string& path, const Movd& movd) {
  size_t size = kHeaderSize + kTrailerSize;
  for (const Ovr& ovr : movd.ovrs) size += SerializedOvrSize(ovr);
  std::string bytes;
  bytes.reserve(size);
  PutFixed(&bytes, kMagic, 4);
  PutFixed(&bytes, kVersion, 4);
  PutFixed(&bytes, movd.ovrs.size(), 8);
  for (const Ovr& ovr : movd.ovrs) PutOvr(&bytes, ovr);
  PutFixed(&bytes, Fnv1a(bytes), 8);

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  const bool written = std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                       bytes.size();
  if (std::fclose(f) != 0 || !written) {
    return Status::IoError("cannot write " + path);
  }
  return Status::Ok();
}

StatusOr<Movd> LoadMovd(const std::string& path) {
  // An unreadable file is an I/O problem; a readable file the decoder
  // rejects is a data problem. The caller's recovery differs (report the
  // path vs. skip the artifact).
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  const bool read_failed = std::ferror(f) != 0;
  std::fclose(f);
  if (read_failed) return Status::IoError("cannot read " + path);

  const auto corrupt = [&path](const char* why) {
    return Status::DataLoss("corrupt MOVD file " + path + ": " + why);
  };
  if (bytes.size() < kHeaderSize + kTrailerSize) return corrupt("truncated");
  const std::string_view body(bytes.data(), bytes.size() - kTrailerSize);
  Cursor in(body);
  if (in.Fixed(4) != kMagic) return corrupt("bad magic");
  if (in.Fixed(4) != kVersion) return corrupt("unsupported version");
  if (Cursor(std::string_view(bytes).substr(body.size())).Fixed(8) !=
      Fnv1a(body)) {
    return corrupt("checksum mismatch");
  }
  const uint64_t count = in.Fixed(8);
  if (count > in.remaining() / kMinRecordBytes) {
    return corrupt("count past the end");
  }
  Movd movd;
  movd.ovrs.reserve(count);
  for (uint64_t i = 0; i < count && in.error() == nullptr; ++i) {
    movd.ovrs.push_back(GetOvr(&in));
  }
  if (in.error() != nullptr) return corrupt(in.error());
  if (in.remaining() != 0) return corrupt("bytes after the last record");
  return movd;
}

}  // namespace movd
