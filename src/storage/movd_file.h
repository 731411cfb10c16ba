#ifndef MOVD_STORAGE_MOVD_FILE_H_
#define MOVD_STORAGE_MOVD_FILE_H_

#include <cstddef>
#include <string>

#include "model/movd_model.h"
#include "util/status.h"

namespace movd {

/// MOVD file format, version 2 (integers little-endian):
///   u32 magic "MOVD", u32 version, u64 record count,
///   records: 4 doubles (mbr), varint #pois, per poi varint set and
///            varint object, varint #pieces, per piece varint #vertices
///            and that many (x, y) double pairs,
///   u64 FNV-1a over every byte before it.
/// Version 1 was the same without the checksum.

/// Serialized size in bytes of one OVR record (serve's cache charges an
/// artifact its records' bytes).
size_t SerializedOvrSize(const Ovr& ovr);

/// Writes a whole in-memory MOVD to `path`. kIoError on failure.
Status SaveMovd(const std::string& path, const Movd& movd);

/// Loads a whole MOVD file into memory. kIoError when the file cannot be
/// read; kDataLoss unless its bytes are exactly what SaveMovd writes for
/// the returned MOVD (bad checksum, magic or version, a count past the
/// end of the file, a malformed varint, an index above INT32_MAX, a piece
/// of fewer than 3 vertices, trailing bytes).
StatusOr<Movd> LoadMovd(const std::string& path);

}  // namespace movd

#endif  // MOVD_STORAGE_MOVD_FILE_H_
