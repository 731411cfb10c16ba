#include "serve/protocol.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <type_traits>
#include <variant>
#include <vector>

#include "util/check.h"

namespace movd {
namespace {

std::vector<std::string> SplitWords(const std::string& line) {
  std::vector<std::string> words;
  size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && std::isspace(static_cast<unsigned char>(
                                    line[pos])) != 0) {
      ++pos;
    }
    size_t end = pos;
    while (end < line.size() && std::isspace(static_cast<unsigned char>(
                                    line[end])) == 0) {
      ++end;
    }
    if (end > pos) words.push_back(line.substr(pos, end - pos));
    pos = end;
  }
  return words;
}

std::string Upper(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return s;
}

bool ParseI64(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseF64(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

/// Wire spelling and HELP usage hint of one argument key. The registry's
/// arg masks index into this table; the parser, the per-verb "X requires
/// ..." errors, and the HELP output all read it.
struct ArgSpec {
  uint32_t bit;
  const char* key;
  const char* hint;
};

constexpr ArgSpec kArgSpecs[] = {
    {kArgId, "id", "id=<tok>"},
    {kArgDataset, "dataset", "dataset=<name>"},
    {kArgLayers, "layers", "layers=<i,j,...>"},
    {kArgAlgo, "algo", "algo=ssc|rrb|mbrb"},
    {kArgK, "k", "k=<n>"},
    {kArgEpsilon, "epsilon", "epsilon=<e>"},
    {kArgDeadlineMs, "deadline_ms", "deadline_ms=<ms>"},
    {kArgThreads, "threads", "threads=<n>"},
    {kArgCache, "cache", "cache=0|1"},
    {kArgMinDist, "min_dist", "min_dist=<d>"},
    {kArgBoundary, "boundary", "boundary=<poly>"},
    {kArgExclude, "exclude", "exclude=<poly>"},
    {kArgSweep, "sweep", "sweep=<v>|<v>|..."},
    {kArgLayer, "layer", "layer=<i>"},
    {kArgX, "x", "x=<f>"},
    {kArgY, "y", "y=<f>"},
};

const ArgSpec* FindArg(const std::string& key) {
  for (const ArgSpec& spec : kArgSpecs) {
    if (key == spec.key) return &spec;
  }
  return nullptr;
}

/// "SOLVE, DIVERSE, WHATIF" — the non-control verbs whose allowed_args
/// contain `bit`, for "X applies to ... only" errors. Derived from the
/// registry so the message stays correct when a verb row changes.
std::string VerbsAllowing(uint32_t bit) {
  std::string out;
  for (const VerbDescriptor& d : VerbRegistry()) {
    if ((d.caps & kCapControl) != 0 || (d.allowed_args & bit) == 0) continue;
    if (!out.empty()) out += ", ";
    out += d.name;
  }
  return out;
}

/// Joins the usage hints of the args in `mask` with `sep`.
std::string JoinHints(uint32_t mask, const char* sep) {
  std::string out;
  for (const ArgSpec& spec : kArgSpecs) {
    if ((mask & spec.bit) == 0) continue;
    if (!out.empty()) out += sep;
    out += spec.hint;
  }
  return out;
}

/// The op's `algorithm` / `topk` field; null when its verb has none.
MolqAlgorithm* AlgorithmField(EngineOp* op) {
  return std::visit(
      [](auto& spec) -> MolqAlgorithm* {
        if constexpr (requires { spec.algorithm; }) {
          return &spec.algorithm;
        } else {
          return nullptr;
        }
      },
      *op);
}

size_t* TopKField(EngineOp* op) {
  return std::visit(
      [](auto& spec) -> size_t* {
        if constexpr (requires { spec.topk; }) {
          return &spec.topk;
        } else {
          return nullptr;
        }
      },
      *op);
}

/// The empty payload of a registry row's verb, for ParseVerbArg to fill.
EngineOp InitialOp(const VerbDescriptor& d) {
  if ((d.caps & kCapMutation) != 0) {
    SiteMutation mutation;
    mutation.kind = d.mutation;
    return mutation;
  }
  switch (d.kind) {
    case ServeQueryKind::kMolq:
      return SolveSpec{};
    case ServeQueryKind::kSkyline:
      return SkylineSpec{};
    case ServeQueryKind::kDiverse:
      return DiverseSpec{};
    case ServeQueryKind::kConstrained:
      return ConstrainSpec{};
    case ServeQueryKind::kWhatIf:
      return WhatIfSpec{};
  }
  MOVD_CHECK_MSG(false, "verb registry row with an unknown query kind");
  return SolveSpec{};
}

/// Parses one key=value pair for the verb `d` into `request`: envelope
/// keys into the envelope, payload keys into the op InitialOp(d) made.
/// The registry's allowed_args mask has already admitted the key; this is
/// the per-key typed parse and value validation. A payload key whose field
/// the op lacks means the registry row and its spec struct disagree.
Status ParseVerbArg(const VerbDescriptor& d, const ArgSpec& arg,
                    const std::string& value, EngineRequest* request) {
  const auto mismatch = [&] {
    return Status::Internal(std::string("verb ") + d.name +
                            " has no field for '" + arg.key + "'");
  };
  EngineOp* op = &request->op;
  auto* mutation = std::get_if<SiteMutation>(op);
  int64_t i = 0;
  double f = 0.0;
  switch (arg.bit) {
    case kArgId:
      request->id = value;
      return Status::Ok();
    case kArgDataset:
      request->dataset = value;
      return Status::Ok();
    case kArgLayers: {
      request->layers.clear();
      size_t pos = 0;
      while (pos < value.size()) {
        size_t comma = value.find(',', pos);
        if (comma == std::string::npos) comma = value.size();
        if (!ParseI64(value.substr(pos, comma - pos), &i)) {
          return Status::InvalidArgument("bad layers list '" + value + "'");
        }
        request->layers.push_back(static_cast<int32_t>(i));
        pos = comma + 1;
      }
      return Status::Ok();
    }
    case kArgAlgo: {
      MolqAlgorithm* algorithm = AlgorithmField(op);
      if (algorithm == nullptr) return mismatch();
      if (value == "ssc") {
        if ((d.caps & kCapRequiresOverlay) != 0) {
          return Status::InvalidArgument(
              std::string("algo=ssc serves plain SOLVE only; ") + d.name +
              " needs a MOVD artifact (rrb|mbrb)");
        }
        *algorithm = MolqAlgorithm::kSsc;
      } else if (value == "rrb") {
        *algorithm = MolqAlgorithm::kRrb;
      } else if (value == "mbrb") {
        *algorithm = MolqAlgorithm::kMbrb;
      } else {
        return Status::InvalidArgument("unknown algo '" + value +
                                       "' (want ssc|rrb|mbrb)");
      }
      return Status::Ok();
    }
    case kArgK: {
      size_t* topk = TopKField(op);
      if (topk == nullptr) return mismatch();
      if (!ParseI64(value, &i) || i < 1) {
        return Status::InvalidArgument("bad k '" + value + "'");
      }
      *topk = static_cast<size_t>(i);
      return Status::Ok();
    }
    case kArgEpsilon:
      if (!ParseF64(value, &f) || !(f > 0.0)) {
        return Status::InvalidArgument("bad epsilon '" + value + "'");
      }
      request->epsilon = f;
      return Status::Ok();
    case kArgDeadlineMs:
      if (!ParseF64(value, &f) || f < 0.0) {
        return Status::InvalidArgument("bad deadline_ms '" + value + "'");
      }
      request->deadline_ms = f;
      return Status::Ok();
    case kArgThreads:
      if (!ParseI64(value, &i) || i < 0) {
        return Status::InvalidArgument("bad threads '" + value + "'");
      }
      request->exec.threads = static_cast<int>(i);
      return Status::Ok();
    case kArgCache:
      if (value == "0") {
        request->use_cache = false;
      } else if (value == "1") {
        request->use_cache = true;
      } else {
        return Status::InvalidArgument("bad cache '" + value +
                                       "' (want 0|1)");
      }
      return Status::Ok();
    case kArgMinDist: {
      auto* diverse = std::get_if<DiverseSpec>(op);
      if (diverse == nullptr) return mismatch();
      if (!ParseF64(value, &f) || f < 0.0) {
        return Status::InvalidArgument("bad min_dist '" + value + "'");
      }
      diverse->min_distance = f;
      return Status::Ok();
    }
    case kArgBoundary:
    case kArgExclude: {
      auto* constrain = std::get_if<ConstrainSpec>(op);
      if (constrain == nullptr) return mismatch();
      Polygon poly;
      const Status parsed = ParsePolygonSpec(value, &poly);
      if (!parsed.ok()) return parsed;
      QueryConstraint& constraint = constrain->constraint;
      if (arg.bit == kArgExclude) {
        constraint.exclusions.push_back(std::move(poly));
      } else if (!constraint.boundary.Empty()) {
        return Status::InvalidArgument("boundary given twice");
      } else {
        constraint.boundary = std::move(poly);
      }
      return Status::Ok();
    }
    case kArgSweep: {
      auto* what_if = std::get_if<WhatIfSpec>(op);
      if (what_if == nullptr) return mismatch();
      return ParseSweepSpec(value, &what_if->sweep);
    }
    case kArgLayer:
      if (mutation == nullptr) return mismatch();
      if (!ParseI64(value, &i) || i < 0) {
        return Status::InvalidArgument("bad layer '" + value + "'");
      }
      mutation->layer = static_cast<int32_t>(i);
      return Status::Ok();
    case kArgX:
    case kArgY:
      if (mutation == nullptr) return mismatch();
      if (!ParseF64(value, &f) || !std::isfinite(f)) {
        return Status::InvalidArgument(std::string("bad ") + arg.key + " '" +
                                       value + "'");
      }
      if (arg.bit == kArgX) {
        mutation->location.x = f;
      } else {
        mutation->location.y = f;
      }
      return Status::Ok();
  }
  return Status::Internal("unhandled argument '" + std::string(arg.key) +
                          "'");
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) for
/// dataset/set names that come from user-controlled paths.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

const std::vector<VerbDescriptor>& VerbRegistry() {
  // The common keys every query shape shares; per-shape rows add algo/k/
  // shape-specific keys on top.
  constexpr uint32_t kCommonQuery = kArgId | kArgDataset | kArgLayers |
                                    kArgEpsilon | kArgDeadlineMs |
                                    kArgThreads | kArgCache;
  constexpr uint32_t kMutation = kArgId | kArgDataset | kArgLayer | kArgX |
                                 kArgY;
  static const std::vector<VerbDescriptor>* const kRegistry =
      new std::vector<VerbDescriptor>{
          {"SOLVE", 1, ServeVerb::kSolve, ServeQueryKind::kMolq,
           MutationKind::kInsert, 0,
           kCommonQuery | kArgAlgo | kArgK, kArgDataset, 0, 1,
           "top-k optimal locations"},
          {"SKYLINE", 1, ServeVerb::kSolve, ServeQueryKind::kSkyline,
           MutationKind::kInsert, kCapRequiresOverlay,
           kCommonQuery | kArgAlgo, kArgDataset, 0, 1,
           "Pareto-optimal candidate sites"},
          {"DIVERSE", 1, ServeVerb::kSolve, ServeQueryKind::kDiverse,
           MutationKind::kInsert, kCapRequiresOverlay,
           kCommonQuery | kArgAlgo | kArgK | kArgMinDist,
           kArgDataset | kArgK | kArgMinDist, 0, 1,
           "top-k with a minimum pairwise distance"},
          {"CONSTRAIN", 1, ServeVerb::kSolve, ServeQueryKind::kConstrained,
           MutationKind::kInsert, kCapRequiresOverlay,
           kCommonQuery | kArgBoundary | kArgExclude, kArgDataset,
           kArgBoundary | kArgExclude, 1,
           "optimum inside a polygon, minus exclusions (RRB only)"},
          {"WHATIF", 1, ServeVerb::kSolve, ServeQueryKind::kWhatIf,
           MutationKind::kInsert, kCapRequiresOverlay,
           kCommonQuery | kArgAlgo | kArgK | kArgSweep,
           kArgDataset | kArgSweep, 0, 1,
           "batched rankings under scaled type weights"},
          {"INSERT", 2, ServeVerb::kSolve, ServeQueryKind::kMolq,
           MutationKind::kInsert, kCapMutation, kMutation,
           kArgDataset | kArgLayer | kArgX | kArgY, 0, 4,
           "add a site to a layer; publishes a new snapshot version"},
          {"DELETE", 2, ServeVerb::kSolve, ServeQueryKind::kMolq,
           MutationKind::kDelete, kCapMutation, kMutation,
           kArgDataset | kArgLayer | kArgX | kArgY, 0, 4,
           "remove the site at (x, y) from a layer; publishes a new "
           "snapshot version"},
          {"STATS", 1, ServeVerb::kStats, ServeQueryKind::kMolq,
           MutationKind::kInsert, kCapControl, 0, 0, 0, 0,
           "serving metrics as JSON"},
          {"HELP", 2, ServeVerb::kHelp, ServeQueryKind::kMolq,
           MutationKind::kInsert, kCapControl, 0, 0, 0, 0,
           "this verb registry as JSON"},
          {"PING", 1, ServeVerb::kPing, ServeQueryKind::kMolq,
           MutationKind::kInsert, kCapControl, 0, 0, 0, 0, "liveness probe"},
          {"QUIT", 1, ServeVerb::kQuit, ServeQueryKind::kMolq,
           MutationKind::kInsert, kCapControl, 0, 0, 0, 0,
           "close this connection"},
          {"SHUTDOWN", 1, ServeVerb::kShutdown, ServeQueryKind::kMolq,
           MutationKind::kInsert, kCapControl, 0, 0, 0, 0,
           "stop the whole server"},
      };
  return *kRegistry;
}

const VerbDescriptor* FindVerb(const std::string& upper_name) {
  for (const VerbDescriptor& d : VerbRegistry()) {
    if (upper_name == d.name) return &d;
  }
  return nullptr;
}

std::string HelpJson() {
  std::string out = "{\"protocol_version\": " +
                    std::to_string(kServeProtocolVersion) + ", \"verbs\": [";
  bool first = true;
  for (const VerbDescriptor& d : VerbRegistry()) {
    if (!first) out += ", ";
    first = false;
    out += "{\"verb\": \"";
    out += d.name;
    out += "\", \"since\": ";
    out += std::to_string(d.since_version);
    out += ", \"cost\": ";
    out += std::to_string(d.cost_units);
    out += ", \"mutation\": ";
    out += (d.caps & kCapMutation) != 0 ? "true" : "false";
    out += ", \"args\": [";
    bool first_arg = true;
    for (const ArgSpec& spec : kArgSpecs) {
      if ((d.allowed_args & spec.bit) == 0) continue;
      if (!first_arg) out += ", ";
      first_arg = false;
      out += "\"";
      out += spec.hint;
      out += "\"";
    }
    out += "], \"required\": [";
    first_arg = true;
    for (const ArgSpec& spec : kArgSpecs) {
      if ((d.required_args & spec.bit) == 0) continue;
      if (!first_arg) out += ", ";
      first_arg = false;
      out += "\"";
      out += spec.key;
      out += "\"";
    }
    out += "], \"summary\": \"" + JsonEscape(d.summary) + "\"}";
  }
  out += "]}";
  return out;
}

Status ParseRequest(const std::string& line, ServeVerb* verb,
                    EngineRequest* request) {
  const std::vector<std::string> words = SplitWords(line);
  if (words.empty()) {
    return Status::InvalidArgument("empty request line");
  }
  const std::string name = Upper(words[0]);
  const VerbDescriptor* d = FindVerb(name);
  if (d == nullptr) {
    return Status::UnsupportedVerb(
        "unknown verb '" + words[0] + "' (protocol v" +
        std::to_string(kServeProtocolVersion) + "; try HELP)");
  }
  if ((d->caps & kCapControl) != 0) {
    if (words.size() != 1) {
      return Status::InvalidArgument(name + " takes no arguments");
    }
    *verb = d->verb;
    return Status::Ok();
  }
  *verb = d->verb;
  EngineRequest parsed;
  parsed.cost_units = d->cost_units;
  parsed.op = InitialOp(*d);
  uint32_t seen = 0;
  for (size_t i = 1; i < words.size(); ++i) {
    const size_t eq = words[i].find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("expected key=value, got '" + words[i] +
                                     "'");
    }
    const std::string key = words[i].substr(0, eq);
    const std::string value = words[i].substr(eq + 1);
    const ArgSpec* arg = FindArg(key);
    if (arg == nullptr) {
      return Status::InvalidArgument("unknown " + name + " argument '" +
                                     key + "'");
    }
    if ((d->allowed_args & arg->bit) == 0) {
      return Status::InvalidArgument(key + " applies to " +
                                     VerbsAllowing(arg->bit) + " only");
    }
    const Status status = ParseVerbArg(*d, *arg, value, &parsed);
    if (!status.ok()) return status;
    seen |= arg->bit;
  }
  const uint32_t missing = d->required_args & ~seen;
  if (missing != 0) {
    return Status::InvalidArgument(name + " requires " +
                                   JoinHints(missing, " and "));
  }
  if (d->required_any != 0 && (seen & d->required_any) == 0) {
    return Status::InvalidArgument(name + " requires " +
                                   JoinHints(d->required_any, " and/or "));
  }
  *request = std::move(parsed);
  return Status::Ok();
}

namespace {

/// %.17g — enough digits that strtod reads back the exact double, so a
/// formatted request parses to bit-identical coordinates.
std::string F64Spec(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string PolygonSpecString(const Polygon& poly) {
  std::string out;
  for (const Point& p : poly.vertices()) {
    if (!out.empty()) out += ";";
    out += F64Spec(p.x) + "," + F64Spec(p.y);
  }
  return out;
}

const char* AlgoSpecName(MolqAlgorithm algorithm) {
  switch (algorithm) {
    case MolqAlgorithm::kSsc:
      return "ssc";
    case MolqAlgorithm::kRrb:
      return "rrb";
    case MolqAlgorithm::kMbrb:
      return "mbrb";
  }
  return "rrb";
}

}  // namespace

std::string FormatRequestLine(const EngineRequest& request) {
  // The payload's own fields: a spec struct carries exactly the keys its
  // verb row allows, so emitting every field it has is registry-gated by
  // construction.
  std::string args;
  const char* name = std::visit(
      [&args](const auto& op) -> const char* {
        using T = std::decay_t<decltype(op)>;
        if constexpr (requires { op.algorithm; }) {
          args += std::string(" algo=") + AlgoSpecName(op.algorithm);
        }
        if constexpr (requires { op.topk; }) {
          args += " k=" + std::to_string(op.topk);
        }
        if constexpr (std::is_same_v<T, SolveSpec>) return "SOLVE";
        if constexpr (std::is_same_v<T, SkylineSpec>) return "SKYLINE";
        if constexpr (std::is_same_v<T, DiverseSpec>) {
          args += " min_dist=" + F64Spec(op.min_distance);
          return "DIVERSE";
        }
        if constexpr (std::is_same_v<T, ConstrainSpec>) {
          if (!op.constraint.boundary.Empty()) {
            args += " boundary=" + PolygonSpecString(op.constraint.boundary);
          }
          for (const Polygon& poly : op.constraint.exclusions) {
            args += " exclude=" + PolygonSpecString(poly);
          }
          return "CONSTRAIN";
        }
        if constexpr (std::is_same_v<T, WhatIfSpec>) {
          std::string spec;
          for (const std::vector<double>& vec : op.sweep) {
            if (!spec.empty()) spec += "|";
            std::string v;
            for (const double scale : vec) {
              if (!v.empty()) v += ",";
              v += F64Spec(scale);
            }
            spec += v;
          }
          args += " sweep=" + spec;
          return "WHATIF";
        }
        if constexpr (std::is_same_v<T, SiteMutation>) {
          args += " layer=" + std::to_string(op.layer) +
                  " x=" + F64Spec(op.location.x) +
                  " y=" + F64Spec(op.location.y);
          return op.kind == MutationKind::kDelete ? "DELETE" : "INSERT";
        }
      },
      request.op);
  const VerbDescriptor* d = FindVerb(name);
  MOVD_CHECK_MSG(d != nullptr, "every EngineOp alternative has a verb row");
  // Envelope keys are gated by the row: mutations take none of them.
  std::string line = d->name;
  line += " id=" + request.id + " dataset=" + request.dataset;
  if ((d->allowed_args & kArgLayers) != 0 && !request.layers.empty()) {
    std::string list;
    for (const int32_t layer : request.layers) {
      if (!list.empty()) list += ",";
      list += std::to_string(layer);
    }
    line += " layers=" + list;
  }
  line += args;
  if ((d->allowed_args & kArgEpsilon) != 0) {
    line += " epsilon=" + F64Spec(request.epsilon);
  }
  if ((d->allowed_args & kArgThreads) != 0) {
    line += " threads=" + std::to_string(request.exec.threads);
  }
  if ((d->allowed_args & kArgCache) != 0) {
    line += std::string(" cache=") + (request.use_cache ? "1" : "0");
  }
  if ((d->allowed_args & kArgDeadlineMs) != 0 && request.deadline_ms > 0.0) {
    line += " deadline_ms=" + F64Spec(request.deadline_ms);
  }
  return line;
}

Status ParsePolygonSpec(const std::string& spec, Polygon* out) {
  std::vector<Point> ring;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t semi = spec.find(';', pos);
    if (semi == std::string::npos) semi = spec.size();
    const std::string pair = spec.substr(pos, semi - pos);
    pos = semi + 1;
    if (pair.empty()) continue;
    const size_t comma = pair.find(',');
    double x = 0.0;
    double y = 0.0;
    if (comma == std::string::npos ||
        !ParseF64(pair.substr(0, comma), &x) ||
        !ParseF64(pair.substr(comma + 1), &y)) {
      return Status::InvalidArgument("bad polygon vertex '" + pair +
                                     "' (want x,y)");
    }
    ring.push_back(Point{x, y});
  }
  if (ring.size() < 3) {
    return Status::InvalidArgument(
        "polygon needs >= 3 vertices ('x,y;x,y;x,y...')");
  }
  *out = Polygon(std::move(ring));
  return Status::Ok();
}

Status ParseSweepSpec(const std::string& spec,
                      std::vector<std::vector<double>>* out) {
  out->clear();
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t bar = spec.find('|', pos);
    if (bar == std::string::npos) bar = spec.size();
    const std::string vec = spec.substr(pos, bar - pos);
    pos = bar + 1;
    std::vector<double> scales;
    size_t vpos = 0;
    while (vpos <= vec.size()) {
      size_t comma = vec.find(',', vpos);
      if (comma == std::string::npos) comma = vec.size();
      const std::string tok = vec.substr(vpos, comma - vpos);
      vpos = comma + 1;
      if (tok.empty()) continue;
      double d = 0.0;
      if (!ParseF64(tok, &d)) {
        return Status::InvalidArgument("bad sweep scale '" + tok + "'");
      }
      scales.push_back(d);
    }
    if (scales.empty()) {
      return Status::InvalidArgument(
          "empty sweep vector (want s,s,...|s,s,...)");
    }
    out->push_back(std::move(scales));
  }
  return Status::Ok();
}

std::string AnswerJson(const MolqQuery& query, const SiteCandidate& answer) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"location\": [%.6f, %.6f], \"cost\": %.6f, \"group\": [",
                answer.location.x, answer.location.y, answer.cost);
  std::string out = buf;
  for (size_t i = 0; i < answer.group.size(); ++i) {
    const PoiRef& ref = answer.group[i];
    MOVD_CHECK_MSG(ref.set >= 0 &&
                       static_cast<size_t>(ref.set) < query.sets.size() &&
                       ref.object >= 0 &&
                       static_cast<size_t>(ref.object) <
                           query.sets[static_cast<size_t>(ref.set)]
                               .objects.size(),
                   "answer group references an object outside its query");
    const ObjectSet& set = query.sets[static_cast<size_t>(ref.set)];
    const SpatialObject& obj = set.objects[static_cast<size_t>(ref.object)];
    if (i > 0) out += ", ";
    out += "{\"set\": \"" + JsonEscape(set.name) + "\", ";
    std::snprintf(buf, sizeof(buf), "\"index\": %d, \"at\": [%.6f, %.6f]}",
                  ref.object, obj.location.x, obj.location.y);
    out += buf;
  }
  out += "]";
  // Present only for query-algebra answers, so plain-MOLQ responses keep
  // their exact historical bytes.
  if (!answer.criteria.empty()) {
    out += ", \"criteria\": [";
    for (size_t i = 0; i < answer.criteria.size(); ++i) {
      if (i > 0) out += ", ";
      std::snprintf(buf, sizeof(buf), "%.6f", answer.criteria[i]);
      out += buf;
    }
    out += "]";
  }
  out += "}";
  return out;
}

std::string ResponseJson(const MolqQuery& query, const ServeResponse& resp,
                         bool include_timing) {
  std::string out;
  if (!resp.sweep_answers.empty()) {
    // A what-if sweep: one ranking array per weight vector.
    out = "{\"sweeps\": [";
    for (size_t v = 0; v < resp.sweep_answers.size(); ++v) {
      if (v > 0) out += ", ";
      out += "[";
      for (size_t i = 0; i < resp.sweep_answers[v].size(); ++i) {
        if (i > 0) out += ", ";
        out += AnswerJson(query, resp.sweep_answers[v][i]);
      }
      out += "]";
    }
  } else {
    out = "{\"answers\": [";
    for (size_t i = 0; i < resp.answers.size(); ++i) {
      if (i > 0) out += ", ";
      out += AnswerJson(query, resp.answers[i]);
    }
  }
  if (!include_timing) {
    out += "]}";
    return out;
  }
  // The snapshot version rides in the timing section (between cache_hit
  // and seconds) so the deterministic answer slice — everything before
  // ", \"cache_hit\"" — is unchanged and molq_cli --json (no timing)
  // keeps its exact historical bytes.
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "], \"cache_hit\": %s, \"version\": %llu, \"seconds\": %.6f}",
                resp.cache_hit ? "true" : "false",
                static_cast<unsigned long long>(resp.version), resp.seconds);
  out += buf;
  return out;
}

std::string FormatResponseLine(const MolqQuery* query,
                               const ServeResponse& resp) {
  if (resp.status == StatusCode::kOk) {
    if (resp.is_mutation) {
      char buf[192];
      std::snprintf(buf, sizeof(buf),
                    "{\"version\": %llu, \"recomputed_cells\": %zu, "
                    "\"patched_artifacts\": %zu, \"dropped_artifacts\": %zu, "
                    "\"seconds\": %.6f}",
                    static_cast<unsigned long long>(resp.version),
                    resp.mutation.recomputed_cells,
                    resp.mutation.patched_artifacts,
                    resp.mutation.dropped_artifacts, resp.seconds);
      return "OK " + resp.id + " " + buf;
    }
    MOVD_CHECK_MSG(query != nullptr,
                   "an OK response needs its query to resolve group refs");
    return "OK " + resp.id + " " + ResponseJson(*query, resp);
  }
  std::string out =
      "ERR " + resp.id + " " + StatusCodeName(resp.status);
  if (!resp.error.empty()) out += " " + resp.error;
  return out;
}

}  // namespace movd
