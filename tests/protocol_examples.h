// One example request per serve operation, shared by the protocol's
// round-trip test and the protocol-line corruption corpus, so a new verb
// or field is added in one place and both pick it up.

#ifndef MOVD_TESTS_PROTOCOL_EXAMPLES_H_
#define MOVD_TESTS_PROTOCOL_EXAMPLES_H_

#include <utility>
#include <vector>

#include "core/molq.h"
#include "geom/polygon.h"
#include "model/update_model.h"
#include "serve/engine_api.h"

namespace movd {

/// One request per EngineOp alternative, and one per MutationKind for the
/// mutation alternative, in EngineOp order. The query ops share one
/// envelope with every field off its default; mutations carry only id,
/// dataset and the op. Values such as 1/3 need all 17 digits on the wire.
inline std::vector<EngineRequest> ExampleRequests() {
  std::vector<EngineRequest> requests;
  const auto add_query = [&requests](EngineOp op) {
    EngineRequest& request = requests.emplace_back();
    request.id = "rt";
    request.dataset = "ds";
    request.layers = {0, 2};
    request.epsilon = 1.0 / 3.0;
    request.exec.threads = 3;
    request.use_cache = false;
    request.deadline_ms = 250.5;
    request.op = std::move(op);
  };
  add_query(SolveSpec{MolqAlgorithm::kSsc, 1});
  add_query(SkylineSpec{MolqAlgorithm::kMbrb});
  add_query(DiverseSpec{MolqAlgorithm::kMbrb, 5, 12.5});
  ConstrainSpec constrain;
  constrain.constraint.boundary =
      Polygon({{0.1, 0.2}, {90.0 / 7.0, 0.2}, {90.0 / 7.0, 80.3}, {0.1, 80.3}});
  constrain.constraint.exclusions.push_back(
      Polygon({{1.0 / 3.0, 1.0 / 3.0}, {2, 1.0 / 3.0}, {2, 2}}));
  constrain.constraint.exclusions.push_back(
      Polygon({{5, 5}, {6, 5}, {6, 6}, {5, 6}}));
  add_query(std::move(constrain));
  add_query(
      WhatIfSpec{MolqAlgorithm::kRrb, 3, {{1.0, 0.1}, {2.0 / 3.0, 1e-7}}});
  for (const MutationKind kind :
       {MutationKind::kInsert, MutationKind::kDelete}) {
    EngineRequest& mutate = requests.emplace_back();
    mutate.id = "m";
    mutate.dataset = "ds";
    mutate.op = SiteMutation{kind, 2, Point{1.0 / 3.0, 2.0 / 7.0}};
  }
  return requests;
}

}  // namespace movd

#endif  // MOVD_TESTS_PROTOCOL_EXAMPLES_H_
