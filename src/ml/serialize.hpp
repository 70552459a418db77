// Model serialisation: the snapshot store's contract with the estimators.
//
// Every estimator in the model zoo implements Serializable. save() writes
// the full fitted state (hyperparameters, learned parameters, training data
// the predictor consults) with bit-exact doubles; load() restores it so a
// loaded model predicts bit-identically to the instance that was saved.
// Acceleration structures (KD-trees) are NOT serialised — they are rebuilt
// deterministically from the stored points on load, which keeps the format
// independent of tree-node layout.
#pragma once

#include <memory>
#include <string_view>

#include "ml/estimator.hpp"
#include "radio/mac_address.hpp"
#include "util/binary_io.hpp"

namespace remgen::ml {

/// Implemented by every estimator the snapshot store can persist.
class Serializable {
 public:
  virtual ~Serializable() = default;

  /// Stable type tag written ahead of the state (e.g. "knn"); load_model
  /// dispatches on it.
  [[nodiscard]] virtual std::string_view serial_tag() const = 0;

  /// Writes the fitted state. Only valid after fit().
  virtual void save(util::BinaryWriter& w) const = 0;

  /// Restores the state written by save(); the instance behaves as fitted.
  virtual void load(util::BinaryReader& r) = 0;
};

/// Writes `model`'s tag and state. Throws std::runtime_error when the
/// estimator does not implement Serializable.
void save_model(util::BinaryWriter& w, const Estimator& model);

/// Reads a tag, constructs the matching estimator and loads its state.
/// Throws std::runtime_error on an unknown tag or corrupted state.
[[nodiscard]] std::unique_ptr<Estimator> load_model(util::BinaryReader& r);

/// Snapshot encoding of a MAC address (6 octets, network order).
inline constexpr std::size_t kMacBytes = 6;
void save_mac(util::BinaryWriter& w, const radio::MacAddress& mac);
[[nodiscard]] radio::MacAddress load_mac(util::BinaryReader& r);

}  // namespace remgen::ml
