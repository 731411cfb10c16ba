// molq_cli — command-line front end for the library.
//
//   molq_cli generate --class=STM --count=1000 --out=stm.csv
//       [--seed=1] [--world=10000]
//     Samples a synthetic POI layer (classes: STM, CH, SCH, PPL, BLDG)
//     into a CSV of `x,y,type_weight,object_weight` rows.
//
//   molq_cli solve --inputs=a.csv,b.csv[,c.csv...]
//       [--algorithm=rrb|mbrb|ssc] [--epsilon=1e-3] [--topk=1]
//       [--world=10000] [--svg=answer.svg] [--threads=1]
//       [--json] [--trace=out.json]
//       [--allow=x,y;x,y;x,y...] [--exclude=x,y;...] [--audit]
//     Evaluates MOLQ over the given object sets (one CSV per type) and
//     prints the answer(s) as JSON lines. --threads=N parallelises the
//     pipeline (0 = one thread per hardware thread); the answer is
//     identical for every thread count. --json routes the solve through
//     the serving engine (src/serve) and prints its response object —
//     the same code path and answer serializer movd_serve uses, so the
//     CLI output is byte-identical to a served answer (timing fields are
//     left to stderr so stdout is deterministic and diffable).
//     --allow/--exclude turn the solve into a constrained MOLQ (RRB only;
//     the answer must fall inside the --allow polygon and outside every
//     --exclude polygon's interior), routed through the serving engine
//     like --json. --trace=FILE records a hierarchical span trace of the
//     solve and writes it as Chrome trace_event JSON (open in
//     chrome://tracing or Perfetto); an aggregated per-phase table goes to
//     stderr. Tracing never changes the answer bytes.
//
//   molq_cli skyline --inputs=... [--algorithm=rrb|mbrb] [--epsilon=]
//       [--threads=] [--json] [--audit]
//     The multi-criteria skyline: every candidate site not Pareto-
//     dominated on its per-set criteria vector, one JSON line per member
//     (with --json, the full response object movd_serve would send).
//
//   molq_cli diverse --inputs=... --topk=K --min_dist=D
//       [--algorithm=rrb|mbrb] [--epsilon=] [--threads=] [--json] [--audit]
//     Diversified top-k: the K best sites with pairwise distance >= D.
//
//   molq_cli whatif --inputs=... --sweep=s,s|s,s|... [--topk=1]
//       [--algorithm=rrb|mbrb] [--epsilon=] [--threads=] [--json] [--audit]
//     Batched what-if sweep: one top-k ranking per '|'-separated weight
//     vector (one comma-separated scale per input set), all served from a
//     single MOVD build. Prints the response object ({"sweeps": [...]}).
//
//   --audit runs the src/audit re-check validators on the answer before
//   printing (a validator failure is a hard error), on every shape above.

#include <cstdio>
#include <string>
#include <vector>

#include "core/molq.h"
#include "core/topk.h"
#include "core/weighted_distance.h"
#include "data/csv.h"
#include "data/generate.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "trace/trace.h"
#include "util/flags.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "viz/svg.h"

namespace {

using namespace movd;

std::vector<std::string> SplitList(const std::string& text, char sep) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t at = text.find(sep, pos);
    if (at == std::string::npos) {
      if (pos < text.size()) out.push_back(text.substr(pos));
      break;
    }
    out.push_back(text.substr(pos, at - pos));
    pos = at + 1;
  }
  return out;
}

std::vector<std::string> SplitCsvList(const std::string& csv) {
  return SplitList(csv, ',');
}

// Loads the --inputs CSV layers into `query` and grows `world` to cover
// them (overridden by --world). Returns 0 on success, else an exit code.
int LoadQueryFromFlags(const Flags& flags, const char* cmd, MolqQuery* query,
                       Rect* world) {
  const auto inputs = SplitCsvList(flags.GetString("inputs", ""));
  if (inputs.size() < 1) {
    std::fprintf(stderr, "%s: --inputs=a.csv,b.csv,... is required\n", cmd);
    return 2;
  }
  for (const std::string& path : inputs) {
    const auto objects = LoadObjectsCsv(path);
    if (!objects.has_value() || objects->empty()) {
      std::fprintf(stderr, "%s: cannot read objects from %s\n", cmd,
                   path.c_str());
      return 1;
    }
    ObjectSet set;
    set.name = path;
    set.objects = *objects;
    for (const SpatialObject& obj : set.objects) world->Expand(obj.location);
    query->sets.push_back(std::move(set));
  }
  if (flags.Has("world")) {
    const double w = flags.GetDouble("world", 10000.0);
    *world = Rect(0, 0, w, w);
  }
  return 0;
}

int Generate(const Flags& flags) {
  const std::string cls = flags.GetString("class", "STM");
  const size_t count = static_cast<size_t>(flags.GetInt("count", 1000));
  const std::string out = flags.GetString("out", "");
  const double world = flags.GetDouble("world", 10000.0);
  const uint64_t seed = flags.GetInt("seed", 1);
  flags.WarnUnused(stderr);
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 2;
  }
  const auto points =
      SamplePoiClass(cls, count, Rect(0, 0, world, world), seed);
  std::vector<SpatialObject> objects;
  objects.reserve(points.size());
  for (const Point& p : points) {
    SpatialObject obj;
    obj.location = p;
    objects.push_back(obj);
  }
  if (!SaveObjectsCsv(out, objects)) {
    std::fprintf(stderr, "generate: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu %s objects to %s\n", objects.size(), cls.c_str(),
              out.c_str());
  return 0;
}

// Routes a fully-built request through the serving engine and prints the
// result: with full_object (or for a sweep, whose natural container is
// the response object) the engine's ResponseJson without timing fields,
// otherwise one AnswerJson line per answer — both byte-identical run to
// run. Timing goes to stderr. Shared by every query-algebra subcommand
// and by solve --json / --allow / --exclude.
int ServeAndPrint(const MolqQuery& query, const Rect& world,
                  EngineRequest request, const char* cmd, bool full_object,
                  Point* answer_out) {
  QueryEngine engine;
  engine.RegisterDataset("cli", query, world);
  request.id = "cli";
  request.dataset = "cli";
  const ServeResponse resp = engine.Handle(request);
  if (resp.status != ServeStatus::kOk) {
    std::fprintf(stderr, "%s: %s %s\n", cmd, ServeStatusName(resp.status),
                 resp.error.c_str());
    return 1;
  }
  // The snapshot the response pinned resolves answer group refs.
  const MolqQuery& resolved = resp.snapshot->query;
  if (full_object || !resp.sweep_answers.empty()) {
    std::printf("%s\n",
                ResponseJson(resolved, resp, /*include_timing=*/false).c_str());
  } else {
    for (const SiteCandidate& answer : resp.answers) {
      std::printf("%s\n", AnswerJson(resolved, answer).c_str());
    }
  }
  if (resp.answers.empty() && resp.sweep_answers.empty()) {
    std::fprintf(stderr, "%s: no feasible answer\n", cmd);
  }
  std::fprintf(stderr, "serve: cache_hit=%s seconds=%.6f\n",
               resp.cache_hit ? "true" : "false", resp.seconds);
  if (answer_out != nullptr && !resp.answers.empty()) {
    *answer_out = resp.answers.front().location;
  }
  return 0;
}

int Solve(const Flags& flags) {
  MolqQuery query;
  Rect world;
  if (const int rc = LoadQueryFromFlags(flags, "solve", &query, &world)) {
    return rc;
  }

  MolqOptions options;
  const std::string algo = flags.GetString("algorithm", "rrb");
  if (algo == "rrb") {
    options.algorithm = MolqAlgorithm::kRrb;
  } else if (algo == "mbrb") {
    options.algorithm = MolqAlgorithm::kMbrb;
  } else if (algo == "ssc") {
    options.algorithm = MolqAlgorithm::kSsc;
  } else {
    std::fprintf(stderr, "solve: unknown --algorithm=%s\n", algo.c_str());
    return 2;
  }
  options.epsilon = flags.GetDouble("epsilon", 1e-3);
  options.exec.threads = static_cast<int>(flags.GetInt("threads", 1));
  if (flags.GetBool("audit", false)) options.exec.audit = true;

  const size_t k = static_cast<size_t>(flags.GetInt("topk", 1));
  const bool json = flags.GetBool("json", false);
  const std::string svg_path = flags.GetString("svg", "");
  const std::string trace_path = flags.GetString("trace", "");
  const std::string allow = flags.GetString("allow", "");
  const std::string exclude = flags.GetString("exclude", "");
  const bool constrained = !allow.empty() || !exclude.empty();
  if (constrained && options.algorithm != MolqAlgorithm::kRrb) {
    std::fprintf(stderr,
                 "solve: --allow/--exclude require --algorithm=rrb "
                 "(the clipper needs real region boundaries)\n");
    return 2;
  }
  Trace trace;
  if (!trace_path.empty()) options.exec.trace = &trace;
  flags.WarnUnused(stderr);
  Stopwatch sw;
  Point answer;
  if (json || constrained) {
    // Serve the query through the resident engine: same validation, same
    // solve path, same serializer as a movd_serve SOLVE (or CONSTRAIN)
    // request. Timing is excluded from stdout (it varies run to run) and
    // reported on stderr, so stdout stays byte-identical across runs and
    // trace modes.
    EngineRequest request;
    request.epsilon = options.epsilon;
    request.exec = options.exec;
    if (constrained) {
      ConstrainSpec spec;
      if (k > 1) {
        std::fprintf(stderr,
                     "solve: --topk is ignored with --allow/--exclude "
                     "(constrained MOLQ returns the single optimum)\n");
      }
      if (!allow.empty()) {
        if (const Status s = ParsePolygonSpec(allow, &spec.constraint.boundary);
            !s.ok()) {
          std::fprintf(stderr, "solve: --allow: %s\n", s.message().c_str());
          return 2;
        }
      }
      // '+' separates multiple exclusion polygons ("x,y;x,y;x,y+x,y;...")
      // since the flag parser keeps only the last --exclude occurrence.
      for (const std::string& ring : SplitList(exclude, '+')) {
        Polygon poly;
        if (const Status s = ParsePolygonSpec(ring, &poly); !s.ok()) {
          std::fprintf(stderr, "solve: --exclude: %s\n", s.message().c_str());
          return 2;
        }
        spec.constraint.exclusions.push_back(std::move(poly));
      }
      request.op = std::move(spec);
    } else {
      request.op = SolveSpec{options.algorithm, k};
    }
    const int rc = ServeAndPrint(query, world, std::move(request), "solve",
                                 json, &answer);
    if (rc != 0) return rc;
  } else if (k > 1 && options.algorithm != MolqAlgorithm::kSsc) {
    const MolqResult top = SolveMolqTopK(query, world, k, options);
    if (top.status != StatusCode::kOk) {
      std::fprintf(stderr, "solve: %s\n", StatusCodeName(top.status));
      return 1;
    }
    // One JSON line per rank, through the serializer shared with the
    // serving engine's wire responses (serve/protocol.h).
    for (const SiteCandidate& r : top.ranked) {
      std::printf("%s\n", AnswerJson(query, r).c_str());
    }
    if (!top.ranked.empty()) answer = top.ranked.front().location;
  } else {
    const MolqResult r = SolveMolq(query, world, options);
    if (r.status != StatusCode::kOk) {
      std::fprintf(stderr, "solve: %s\n", StatusCodeName(r.status));
      return 1;
    }
    std::printf("%s\n", AnswerJson(query, r.ranked.front()).c_str());
    answer = r.location;
    std::fprintf(stderr,
                 "stages: vd=%.3fs overlap=%.3fs optimize=%.3fs "
                 "pruned_pairs=%llu (threads=%d)\n",
                 r.stats.vd_seconds, r.stats.overlap_seconds,
                 r.stats.optimize_seconds,
                 static_cast<unsigned long long>(
                     r.stats.overlap.pruned_pairs),
                 r.stats.threads);
  }
  std::fprintf(stderr, "solved in %.3fs\n", sw.ElapsedSeconds());

  if (!trace_path.empty()) {
    const Status written = trace.WriteChromeJson(trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "solve: trace write failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote trace to %s\n", trace_path.c_str());
    trace.PrintPhaseTable(stderr);
  }

  if (!svg_path.empty()) {
    SvgWriter svg(world, 800);
    const char* colors[] = {"#1f77b4", "#2ca02c", "#d62728", "#9467bd",
                            "#8c564b"};
    for (size_t s = 0; s < query.sets.size(); ++s) {
      for (const SpatialObject& obj : query.sets[s].objects) {
        svg.AddCircle(obj.location, 3.0, colors[s % 5]);
      }
    }
    svg.AddCircle(answer, 8.0, "#ff7f0e");
    if (const Status s = svg.Save(svg_path); !s.ok()) {
      std::fprintf(stderr, "solve: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", svg_path.c_str());
  }
  return 0;
}

// skyline / diverse / whatif — the query-algebra shapes, all routed
// through the serving engine so the CLI exercises exactly the code path
// (validation, artifact cache, serializer) movd_serve runs.
int RunShape(const Flags& flags, ServeQueryKind kind, const char* cmd) {
  MolqQuery query;
  Rect world;
  if (const int rc = LoadQueryFromFlags(flags, cmd, &query, &world)) {
    return rc;
  }

  EngineRequest request;
  MolqAlgorithm algorithm = MolqAlgorithm::kRrb;
  const std::string algo = flags.GetString("algorithm", "rrb");
  if (algo == "rrb") {
    algorithm = MolqAlgorithm::kRrb;
  } else if (algo == "mbrb") {
    algorithm = MolqAlgorithm::kMbrb;
  } else {
    std::fprintf(stderr, "%s: --algorithm must be rrb or mbrb (got %s)\n",
                 cmd, algo.c_str());
    return 2;
  }
  request.epsilon = flags.GetDouble("epsilon", 1e-3);
  request.exec.threads = static_cast<int>(flags.GetInt("threads", 1));
  if (flags.GetBool("audit", false)) request.exec.audit = true;
  const bool json = flags.GetBool("json", false);

  if (kind == ServeQueryKind::kDiverse) {
    if (!flags.Has("topk") || !flags.Has("min_dist")) {
      std::fprintf(stderr, "%s: --topk and --min_dist are required\n", cmd);
      return 2;
    }
    request.op = DiverseSpec{algorithm,
                             static_cast<size_t>(flags.GetInt("topk", 1)),
                             flags.GetDouble("min_dist", 0.0)};
  } else if (kind == ServeQueryKind::kWhatIf) {
    const std::string sweep = flags.GetString("sweep", "");
    if (sweep.empty()) {
      std::fprintf(stderr, "%s: --sweep=s,s|s,s|... is required\n", cmd);
      return 2;
    }
    WhatIfSpec spec{algorithm, static_cast<size_t>(flags.GetInt("topk", 1)),
                    {}};
    if (const Status s = ParseSweepSpec(sweep, &spec.sweep); !s.ok()) {
      std::fprintf(stderr, "%s: --sweep: %s\n", cmd, s.message().c_str());
      return 2;
    }
    request.op = std::move(spec);
  } else {
    request.op = SkylineSpec{algorithm};
  }
  flags.WarnUnused(stderr);
  Stopwatch sw;
  const int rc =
      ServeAndPrint(query, world, std::move(request), cmd, json, nullptr);
  std::fprintf(stderr, "solved in %.3fs\n", sw.ElapsedSeconds());
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.positional().empty()) {
    std::fprintf(stderr,
                 "usage: molq_cli <generate|solve|skyline|diverse|whatif> "
                 "[flags]\n"
                 "  generate --class=STM --count=1000 --out=file.csv\n"
                 "  solve --inputs=a.csv,b.csv[,...] [--algorithm=rrb] "
                 "[--topk=3] [--svg=out.svg] [--threads=1] [--json]\n"
                 "        [--allow=x,y;x,y;x,y] [--exclude=x,y;...[+x,y;...]]\n"
                 "  skyline --inputs=... [--algorithm=rrb|mbrb] [--json]\n"
                 "  diverse --inputs=... --topk=K --min_dist=D [--json]\n"
                 "  whatif --inputs=... --sweep=s,s|s,s[|...] [--topk=1] "
                 "[--json]\n");
    return 2;
  }
  const std::string& command = flags.positional()[0];
  if (command == "generate") return Generate(flags);
  if (command == "solve") return Solve(flags);
  if (command == "skyline") {
    return RunShape(flags, ServeQueryKind::kSkyline, "skyline");
  }
  if (command == "diverse") {
    return RunShape(flags, ServeQueryKind::kDiverse, "diverse");
  }
  if (command == "whatif") {
    return RunShape(flags, ServeQueryKind::kWhatIf, "whatif");
  }
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 2;
}
