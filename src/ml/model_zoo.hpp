// Factory for the paper's estimator suite (Figure 8) plus the extension
// interpolators, so benches/examples can enumerate models uniformly.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "ml/estimator.hpp"

namespace remgen::ml {

/// All kinds, in the order the paper (then extensions) lists them.
[[nodiscard]] std::vector<ModelKind> all_model_kinds(bool include_extensions = true);

/// Constructs a fresh, unfitted estimator of the given kind with the paper's
/// tuned hyperparameters, and records the kind on it (Estimator::kind()).
[[nodiscard]] std::unique_ptr<Estimator> make_model(ModelKind kind);

/// Stable identifier for reports, CLI flags and snapshot Model sections.
[[nodiscard]] const char* model_kind_name(ModelKind kind);

/// The kind whose model_kind_name() is `name`; nullopt for any other name.
[[nodiscard]] std::optional<ModelKind> model_kind_from_name(std::string_view name);

}  // namespace remgen::ml
