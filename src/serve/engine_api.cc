#include "serve/engine_api.h"

namespace movd {

ServeQueryKind EngineRequestKind(const EngineRequest& request) {
  struct Visitor {
    ServeQueryKind operator()(const SolveSpec&) const {
      return ServeQueryKind::kMolq;
    }
    ServeQueryKind operator()(const SkylineSpec&) const {
      return ServeQueryKind::kSkyline;
    }
    ServeQueryKind operator()(const DiverseSpec&) const {
      return ServeQueryKind::kDiverse;
    }
    ServeQueryKind operator()(const ConstrainSpec&) const {
      return ServeQueryKind::kConstrained;
    }
    ServeQueryKind operator()(const WhatIfSpec&) const {
      return ServeQueryKind::kWhatIf;
    }
    ServeQueryKind operator()(const SiteMutation&) const {
      return ServeQueryKind::kMolq;
    }
  };
  return std::visit(Visitor{}, request.op);
}

bool IsMutation(const EngineRequest& request) {
  return std::holds_alternative<SiteMutation>(request.op);
}

MolqAlgorithm RequestAlgorithm(const EngineRequest& request) {
  return std::visit(
      [](const auto& op) {
        if constexpr (requires { op.algorithm; }) {
          return op.algorithm;
        } else {
          return MolqAlgorithm::kRrb;
        }
      },
      request.op);
}

size_t RequestTopK(const EngineRequest& request) {
  return std::visit(
      [](const auto& op) -> size_t {
        if constexpr (requires { op.topk; }) {
          return op.topk;
        } else {
          return 1;
        }
      },
      request.op);
}

}  // namespace movd
