// movd_serve — resident MOLQ query server speaking the serve line protocol
// (src/serve/protocol.h) over stdio or a Unix-domain socket.
//
//   movd_serve [--socket=/tmp/movd.sock]
//       [--layers=3] [--count=400] [--world=10000] [--seed=1]
//       [--inputs=a.csv,b.csv]
//       [--cache_mb=256] [--workers=0] [--grid=128]
//       [--admit_cost_limit=0] [--admit_delay_ms=0]
//       [--warm_dir=DIR] [--save_warm] [--trace=FILE]
//
// One QueryEngine serves every dataset: --workers requests run at once,
// and each request's threads= argument parallelizes its own solve.
// --warm_dir loads a SaveCache snapshot (manifest.txt plus MOVD files) at
// start; --save_warm writes one there on exit.
//
// --trace=FILE traces every served request into one engine-wide trace and
// writes it as Chrome trace_event JSON (chrome://tracing, Perfetto) on
// shutdown, plus an aggregated per-phase table on stderr.
//
// Always registers a synthetic dataset named "synthetic" (`--layers` object
// sets of `--count` GeoNames-like points each); `--inputs` additionally
// registers a dataset named "csv" from one CSV per layer. Without
// `--socket` the server reads requests from stdin and answers on stdout
// (one line each way); with it, any number of clients connect concurrently
// and their SOLVE requests are batched onto the engine's worker pool.
// SIGINT/SIGTERM (or the SHUTDOWN verb) stop the server; the metrics table
// is dumped to stderr on exit.

#include <csignal>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/csv.h"
#include "data/generate.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "trace/trace.h"
#include "util/flags.h"

namespace {

using namespace movd;

std::atomic<bool> g_stop{false};
std::atomic<int> g_listen_fd{-1};

void HandleSignal(int) {
  g_stop.store(true);
  const int fd = g_listen_fd.load();
  // Unblocks the accept loop; shutdown() is async-signal-safe.
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

void RegisterSynthetic(QueryEngine* engine, int layers, size_t count,
                       double world_size, uint64_t seed) {
  const Rect world(0, 0, world_size, world_size);
  const auto& catalog = GeoNamesLikeCatalog();
  MolqQuery query;
  for (int i = 0; i < layers; ++i) {
    const PoiClassSpec& spec = catalog[static_cast<size_t>(i) % catalog.size()];
    ObjectSet set;
    set.name = spec.name + "_" + std::to_string(i);
    const auto points =
        SamplePoiClass(spec.name, count, world, seed + static_cast<uint64_t>(i));
    set.objects.reserve(points.size());
    for (const Point& p : points) {
      SpatialObject obj;
      obj.location = p;
      set.objects.push_back(obj);
    }
    query.sets.push_back(std::move(set));
  }
  engine->RegisterDataset("synthetic", std::move(query), world);
}

bool RegisterCsv(QueryEngine* engine, const std::string& csv_list) {
  MolqQuery query;
  Rect world;
  size_t pos = 0;
  while (pos <= csv_list.size()) {
    size_t comma = csv_list.find(',', pos);
    if (comma == std::string::npos) comma = csv_list.size();
    const std::string path = csv_list.substr(pos, comma - pos);
    pos = comma + 1;
    if (path.empty()) continue;
    const auto objects = LoadObjectsCsv(path);
    if (!objects.has_value() || objects->empty()) {
      std::fprintf(stderr, "movd_serve: cannot read objects from %s\n",
                   path.c_str());
      return false;
    }
    ObjectSet set;
    set.name = path;
    set.objects = *objects;
    for (const SpatialObject& obj : set.objects) world.Expand(obj.location);
    query.sets.push_back(std::move(set));
  }
  if (query.sets.empty()) {
    std::fprintf(stderr, "movd_serve: --inputs named no readable files\n");
    return false;
  }
  engine->RegisterDataset("csv", std::move(query), world);
  return true;
}

/// Handles one protocol line; fills the response line (no trailing
/// newline). Returns true when the whole server should shut down.
bool ServeOneLine(QueryEngine* engine, const std::string& line,
                  std::string* out, bool* close_conn) {
  ServeVerb verb = ServeVerb::kPing;
  EngineRequest request;
  const Status parsed = ParseRequest(line, &verb, &request);
  if (!parsed.ok()) {
    *out = "ERR - " + std::string(StatusCodeName(parsed.code())) + " " +
           parsed.message();
    return false;
  }
  switch (verb) {
    case ServeVerb::kPing:
      *out = "OK - pong";
      return false;
    case ServeVerb::kStats:
      *out = "OK - " + engine->MetricsJson();
      return false;
    case ServeVerb::kHelp:
      *out = "OK - " + HelpJson();
      return false;
    case ServeVerb::kQuit:
      *out = "OK - bye";
      *close_conn = true;
      return false;
    case ServeVerb::kShutdown:
      *out = "OK - shutting down";
      *close_conn = true;
      return true;
    case ServeVerb::kSolve:
      break;
  }
  // HandleAsync + get: the connection thread blocks while the request
  // queues on the engine's worker pool with everything else in flight.
  const ServeResponse resp = engine->HandleAsync(std::move(request)).get();
  // Resolve answer group refs through the snapshot the response pinned —
  // never the engine's current one, which a concurrent mutation may have
  // superseded mid-solve.
  *out = FormatResponseLine(
      resp.snapshot != nullptr ? &resp.snapshot->query : nullptr, resp);
  return false;
}

int RunStdio(QueryEngine* engine) {
  std::string line;
  while (!g_stop.load() && std::getline(std::cin, line)) {
    if (line.empty()) continue;
    std::string out;
    bool close_conn = false;
    const bool shutdown = ServeOneLine(engine, line, &out, &close_conn);
    out += '\n';
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
    if (shutdown || close_conn) break;
  }
  return 0;
}

int RunSocket(QueryEngine* engine, const std::string& path) {
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::fprintf(stderr, "movd_serve: socket: %s\n", std::strerror(errno));
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "movd_serve: socket path too long: %s\n",
                 path.c_str());
    return 1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, 64) != 0) {
    std::fprintf(stderr, "movd_serve: bind/listen %s: %s\n", path.c_str(),
                 std::strerror(errno));
    ::close(listen_fd);
    return 1;
  }
  g_listen_fd.store(listen_fd);
  std::fprintf(stderr, "movd_serve: listening on %s\n", path.c_str());

  std::mutex clients_mu;
  std::vector<int> client_fds;
  std::vector<std::thread> threads;
  while (!g_stop.load()) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR && !g_stop.load()) continue;
      break;  // listener shut down
    }
    {
      std::lock_guard<std::mutex> lock(clients_mu);
      client_fds.push_back(fd);
    }
    threads.emplace_back([engine, fd, listen_fd, &clients_mu, &client_fds] {
      std::string buffer;
      char chunk[4096];
      bool close_conn = false;
      while (!close_conn && !g_stop.load()) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) {
          if (n < 0 && errno == EINTR) continue;
          break;
        }
        buffer.append(chunk, static_cast<size_t>(n));
        size_t nl = 0;
        while (!close_conn && (nl = buffer.find('\n')) != std::string::npos) {
          const std::string line = buffer.substr(0, nl);
          buffer.erase(0, nl + 1);
          if (line.empty()) continue;
          std::string out;
          if (ServeOneLine(engine, line, &out, &close_conn)) {
            g_stop.store(true);
            ::shutdown(listen_fd, SHUT_RDWR);
          }
          out += '\n';
          if (!SendAll(fd, out)) close_conn = true;
        }
      }
      // Deregister before closing so the shutdown sweep never touches a
      // reused descriptor.
      {
        std::lock_guard<std::mutex> lock(clients_mu);
        for (size_t i = 0; i < client_fds.size(); ++i) {
          if (client_fds[i] == fd) {
            client_fds.erase(client_fds.begin() +
                             static_cast<ptrdiff_t>(i));
            break;
          }
        }
      }
      ::close(fd);
    });
  }
  {
    // Unblock connection threads still parked in recv().
    std::lock_guard<std::mutex> lock(clients_mu);
    for (const int fd : client_fds) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : threads) t.join();
  ::close(listen_fd);
  ::unlink(path.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  QueryEngineOptions options;
  options.cache_bytes = static_cast<size_t>(flags.GetInt("cache_mb", 256))
                        << 20;
  options.workers = static_cast<int>(flags.GetInt("workers", 0));
  options.exec.weighted_grid_resolution =
      static_cast<int>(flags.GetInt("grid", 128));
  // Admission control (both default off): total cost units allowed in the
  // worker queue, and the queue-delay budget past which requests are shed
  // with OVERLOADED.
  options.admission_cost_limit =
      static_cast<size_t>(flags.GetInt("admit_cost_limit", 0));
  options.admission_delay_budget_ms = flags.GetDouble("admit_delay_ms", 0.0);
  const std::string trace_path = flags.GetString("trace", "");
  Trace trace;
  if (!trace_path.empty()) options.exec.trace = &trace;
  QueryEngine engine(options);

  const int layers = static_cast<int>(flags.GetInt("layers", 3));
  const size_t count = static_cast<size_t>(flags.GetInt("count", 400));
  const double world = flags.GetDouble("world", 10000.0);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  RegisterSynthetic(&engine, layers, count, world, seed);
  const std::string inputs = flags.GetString("inputs", "");
  if (!inputs.empty() && !RegisterCsv(&engine, inputs)) return 1;

  const std::string warm_dir = flags.GetString("warm_dir", "");
  const bool save_warm = flags.GetBool("save_warm", false);
  const std::string socket_path = flags.GetString("socket", "");
  flags.WarnUnused(stderr);

  if (!warm_dir.empty()) {
    const auto r = engine.LoadCache(warm_dir);
    if (!r.status.ok()) {
      std::fprintf(stderr, "movd_serve: warm start: %s\n",
                   r.status.ToString().c_str());
    } else {
      std::fprintf(stderr,
                   "movd_serve: warm start loaded %zu artifacts"
                   " (%zu skipped as corrupt, missing or unfit)\n",
                   r.loaded, r.failed);
    }
  }

  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  const int rc = socket_path.empty() ? RunStdio(&engine)
                                     : RunSocket(&engine, socket_path);

  if (save_warm) {
    if (warm_dir.empty()) {
      std::fprintf(stderr, "movd_serve: --save_warm needs --warm_dir\n");
    } else {
      const Status saved = engine.SaveCache(warm_dir);
      if (saved.ok()) {
        std::fprintf(stderr, "movd_serve: saved cache snapshot to %s\n",
                     warm_dir.c_str());
      } else {
        std::fprintf(stderr, "movd_serve: cache snapshot failed: %s\n",
                     saved.ToString().c_str());
      }
    }
  }
  engine.DumpMetrics(stderr);
  if (!trace_path.empty()) {
    const Status written = trace.WriteChromeJson(trace_path);
    if (written.ok()) {
      std::fprintf(stderr, "movd_serve: trace written to %s\n",
                   trace_path.c_str());
    } else {
      std::fprintf(stderr, "movd_serve: trace write failed: %s\n",
                   written.ToString().c_str());
    }
    trace.PrintPhaseTable(stderr);
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
