#include "data/csv.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace movd {

bool SavePointsCsv(const std::string& path, const std::vector<Point>& points) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = true;
  for (const Point& p : points) {
    ok = ok && std::fprintf(f, "%.17g,%.17g\n", p.x, p.y) > 0;
  }
  return std::fclose(f) == 0 && ok;
}

bool SaveObjectsCsv(const std::string& path,
                    const std::vector<SpatialObject>& objects) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = true;
  for (const SpatialObject& obj : objects) {
    ok = ok && std::fprintf(f, "%.17g,%.17g,%.17g,%.17g\n", obj.location.x,
                            obj.location.y, obj.type_weight,
                            obj.object_weight) > 0;
  }
  return std::fclose(f) == 0 && ok;
}

namespace {

// Parses one `a,b[,...]` row of at most `max` finite numbers into `out`.
// Returns how many it read, or 0 when the row is malformed: a field that
// is not a number, a non-finite value, more than `max` fields, or
// anything but whitespace after the last number.
size_t ParseRow(const char* line, double* out, size_t max) {
  const char* cursor = line;
  for (size_t n = 0; n < max; ++n) {
    char* end = nullptr;
    out[n] = std::strtod(cursor, &end);
    if (end == cursor || !std::isfinite(out[n])) return 0;
    cursor = end;
    if (*cursor != ',') {
      while (std::isspace(static_cast<unsigned char>(*cursor))) ++cursor;
      return *cursor == '\0' ? n + 1 : 0;
    }
    ++cursor;
  }
  return 0;
}

// Hands the numbers of each row of `path` to `add`, skipping blank rows
// and a leading `x,y` header. False on I/O failure, a row cut by the line
// buffer, or a row that ParseRow rejects or that has fewer than
// `min_fields` numbers.
template <typename Add>
bool ReadRows(const std::string& path, size_t min_fields, size_t max_fields,
              Add add) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char line[512];
  double fields[4];
  bool first = true;
  bool ok = true;
  while (ok && std::fgets(line, sizeof(line), f) != nullptr) {
    if (first && std::strncmp(line, "x,y", 3) == 0) {
      first = false;
      continue;
    }
    first = false;
    if (line[0] == '\n' || line[0] == '\0') continue;
    const bool cut = std::strchr(line, '\n') == nullptr && !std::feof(f);
    const size_t n = cut ? 0 : ParseRow(line, fields, max_fields);
    ok = n >= min_fields;
    if (ok) add(fields, n);
  }
  std::fclose(f);
  return ok;
}

}  // namespace

std::optional<std::vector<SpatialObject>> LoadObjectsCsv(
    const std::string& path) {
  std::vector<SpatialObject> out;
  const bool ok = ReadRows(path, 2, 4, [&out](const double* v, size_t n) {
    SpatialObject obj;
    obj.location = {v[0], v[1]};
    if (n > 2) obj.type_weight = v[2];
    if (n > 3) obj.object_weight = v[3];
    out.push_back(obj);
  });
  if (!ok) return std::nullopt;
  return out;
}

std::optional<std::vector<Point>> LoadPointsCsv(const std::string& path) {
  std::vector<Point> out;
  const bool ok = ReadRows(path, 2, 2, [&out](const double* v, size_t) {
    out.push_back({v[0], v[1]});
  });
  if (!ok) return std::nullopt;
  return out;
}

}  // namespace movd
