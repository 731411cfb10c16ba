// Deterministic corruption sweep over the serve line protocol (`ctest -L
// fuzz`). The wire line of each request in protocol_examples.h (every
// EngineOp verb, INSERT and DELETE included) and the control verbs PING,
// STATS and HELP are cut to every proper prefix and have every byte
// replaced by each character of a small alphabet of separators, signs and
// number pieces. ParseRequest must answer each line with a non-OK status
// or with a request whose FormatRequestLine parses back to the same line:
// never an abort, and never a request the wire cannot spell again.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "protocol_examples.h"
#include "serve/engine_api.h"
#include "serve/protocol.h"

namespace movd {
namespace {

/// The protocol's example requests, one per EngineOp alternative and
/// mutation kind, as wire lines, then the control verbs.
std::vector<std::string> SeedLines() {
  std::vector<std::string> lines;
  for (const EngineRequest& request : ExampleRequests()) {
    lines.push_back(FormatRequestLine(request));
  }
  lines.insert(lines.end(), {"PING", "STATS", "HELP"});
  return lines;
}

/// The oracle for a parsed request: an empty string when its formatted
/// line parses back and formats to itself, otherwise what went wrong.
std::string RoundTripProblem(const EngineRequest& request) {
  const std::string formatted = FormatRequestLine(request);
  ServeVerb verb = ServeVerb::kPing;
  EngineRequest reparsed;
  const Status status = ParseRequest(formatted, &verb, &reparsed);
  if (!status.ok()) {
    return "formats to '" + formatted + "', which fails: " +
           status.ToString();
  }
  const std::string again = FormatRequestLine(reparsed);
  if (again != formatted) {
    return "formats to '" + formatted + "', which reformats to '" + again +
           "'";
  }
  return "";
}

/// Parses every line, runs the oracle on each parsed request (control
/// verbs carry none), fails the test on the first few lines that break
/// it, and returns how many lines parsed.
size_t CheckLines(const std::vector<std::string>& lines) {
  size_t bad = 0;
  size_t parsed = 0;
  for (const std::string& line : lines) {
    ServeVerb verb = ServeVerb::kPing;
    EngineRequest request;
    if (!ParseRequest(line, &verb, &request).ok()) continue;
    ++parsed;
    if (verb != ServeVerb::kSolve) continue;
    const std::string problem = RoundTripProblem(request);
    if (!problem.empty()) {
      ADD_FAILURE() << "'" << line << "' " << problem;
      if (++bad == 5) break;
    }
  }
  return parsed;
}

TEST(ProtocolFuzzTest, SeedsRoundTrip) {
  const std::vector<std::string> seeds = SeedLines();
  ASSERT_EQ(seeds.size(), ExampleRequests().size() + 3);
  EXPECT_EQ(CheckLines(seeds), seeds.size());
}

TEST(ProtocolFuzzTest, EveryProperPrefix) {
  std::vector<std::string> lines;
  for (const std::string& seed : SeedLines()) {
    for (size_t len = 0; len < seed.size(); ++len) {
      lines.push_back(seed.substr(0, len));
    }
  }
  const size_t parsed = CheckLines(lines);
  EXPECT_GT(parsed, 0u);
  std::printf("%zu prefixes, %zu parsed\n", lines.size(), parsed);
}

TEST(ProtocolFuzzTest, EverySingleByteReplacement) {
  constexpr char kAlphabet[] = {' ', '=', ',', ';', '-', '.',
                                'e', '9', 'x', '\t'};
  std::vector<std::string> lines;
  for (const std::string& seed : SeedLines()) {
    for (size_t pos = 0; pos < seed.size(); ++pos) {
      for (const char c : kAlphabet) {
        if (seed[pos] == c) continue;
        std::string line = seed;
        line[pos] = c;
        lines.push_back(std::move(line));
      }
    }
  }
  const size_t parsed = CheckLines(lines);
  EXPECT_GT(parsed, 0u);
  std::printf("%zu replacements, %zu parsed\n", lines.size(), parsed);
}

}  // namespace
}  // namespace movd
