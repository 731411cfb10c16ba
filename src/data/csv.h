#ifndef MOVD_DATA_CSV_H_
#define MOVD_DATA_CSV_H_

#include <optional>
#include <string>
#include <vector>

#include "model/object.h"
#include "geom/point.h"

namespace movd {

/// Writes points as `x,y` lines (17 significant digits: exact double
/// round-trip). Returns false on I/O failure.
bool SavePointsCsv(const std::string& path, const std::vector<Point>& points);

/// Reads points from an `x,y`-per-line file (a leading `x,y` header row is
/// tolerated). Returns nullopt on I/O failure or a malformed row: a field
/// that is not a number, a non-finite value, a third field, or anything
/// but whitespace after the last number.
std::optional<std::vector<Point>> LoadPointsCsv(const std::string& path);

/// Writes spatial objects as `x,y,type_weight,object_weight` lines.
bool SaveObjectsCsv(const std::string& path,
                    const std::vector<SpatialObject>& objects);

/// Reads spatial objects from `x,y[,type_weight[,object_weight]]` lines
/// (missing weights default to 1; a header row starting with `x,y` is
/// tolerated). Returns nullopt on I/O failure or a malformed row, as
/// LoadPointsCsv rejects them but with up to four fields.
std::optional<std::vector<SpatialObject>> LoadObjectsCsv(
    const std::string& path);

}  // namespace movd

#endif  // MOVD_DATA_CSV_H_
