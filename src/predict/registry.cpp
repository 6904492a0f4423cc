#include "predict/registry.hpp"

#include <string>

namespace bgl {

const char* to_string(PredictorModel model) {
  switch (model) {
    case PredictorModel::kPaper: return "paper";
    case PredictorModel::kHistory: return "history";
    case PredictorModel::kPerfect: return "perfect";
    case PredictorModel::kNone: return "none";
    case PredictorModel::kAdaptive: return "adaptive";
  }
  return "?";
}

std::optional<PredictorModel> parse_predictor_model(std::string_view name) {
  if (name == "paper") return PredictorModel::kPaper;
  if (name == "history") return PredictorModel::kHistory;
  if (name == "perfect") return PredictorModel::kPerfect;
  if (name == "none") return PredictorModel::kNone;
  if (name == "adaptive") return PredictorModel::kAdaptive;
  return std::nullopt;
}

bool predictor_needs_oracle(PredictorModel model, PaperRole role) {
  switch (model) {
    case PredictorModel::kPaper:
      return role != PaperRole::kNull;
    case PredictorModel::kHistory:
    case PredictorModel::kPerfect:
      return true;
    case PredictorModel::kNone:
    case PredictorModel::kAdaptive:
      return false;
  }
  return false;
}

std::unique_ptr<FaultPredictor> make_predictor(const PredictorSpec& spec,
                                               int num_nodes,
                                               const FailureTrace* oracle) {
  auto need_oracle = [&]() -> const FailureTrace& {
    if (oracle == nullptr) {
      throw OracleRequiredError(
          spec.model,
          std::string("predictor '") + to_string(spec.model) +
              "' needs a failure oracle trace; pass one or use predictor "
              "'none' or 'adaptive'");
    }
    BGL_CHECK(oracle->empty() || oracle->num_nodes() == num_nodes,
              "failure oracle node count mismatch");
    return *oracle;
  };

  switch (spec.model) {
    case PredictorModel::kPaper:
      switch (spec.paper_role) {
        case PaperRole::kNull:
          return std::make_unique<NullPredictor>(num_nodes);
        case PaperRole::kBalancing:
          return std::make_unique<BalancingPredictor>(need_oracle(), spec.alpha);
        case PaperRole::kTieBreak:
          return std::make_unique<TieBreakPredictor>(need_oracle(), spec.alpha,
                                                     spec.seed);
      }
      break;
    case PredictorModel::kHistory:
      return std::make_unique<HistoryPredictor>(need_oracle(),
                                                spec.history_lookback,
                                                spec.alpha);
    case PredictorModel::kPerfect:
      return std::make_unique<PerfectPredictor>(need_oracle());
    case PredictorModel::kNone:
      return std::make_unique<NullPredictor>(num_nodes);
    case PredictorModel::kAdaptive: {
      AdaptiveConfig cfg = spec.adaptive;
      // alpha 0 is the "unset" default everywhere (and would zero the
      // balancing scheduler's failure probabilities); keep the
      // AdaptiveConfig default confidence in that case.
      if (spec.alpha > 0.0) cfg.confidence = spec.alpha;
      return std::make_unique<AdaptivePredictor>(num_nodes, cfg);
    }
  }
  return std::make_unique<NullPredictor>(num_nodes);
}

}  // namespace bgl
