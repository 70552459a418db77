// Contiguous row-major feature storage for the ML stage.
//
// Replaces the std::vector<std::vector<double>> row set: one allocation for
// the whole matrix, so distance kernels scan training rows cache-linearly
// instead of chasing a pointer per row, and snapshot save/load moves one flat
// block of doubles. The serialized layout (row count, column count, values in
// row-major order) matches the bytes the nested-vector code used to write, so
// existing REMSNAP sections stay readable.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/binary_io.hpp"

namespace remgen::data {

/// Dense rows x cols matrix of doubles, row-major, one allocation.
class FeatureMatrix {
 public:
  FeatureMatrix() = default;

  /// A zero-initialised rows x cols matrix.
  FeatureMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), values_(rows * cols, 0.0) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0; }

  /// One row as a span (valid until the matrix is resized or destroyed).
  [[nodiscard]] std::span<const double> row(std::size_t i) const {
    return {values_.data() + i * cols_, cols_};
  }
  [[nodiscard]] std::span<double> row(std::size_t i) {
    return {values_.data() + i * cols_, cols_};
  }

  /// Raw pointer to a row's first element — the distance kernels' hot input.
  [[nodiscard]] const double* row_ptr(std::size_t i) const noexcept {
    return values_.data() + i * cols_;
  }

  /// The whole value block in row-major order.
  [[nodiscard]] std::span<const double> values() const noexcept { return values_; }

  /// Writes rows, cols, then the values row-major — byte-identical to the
  /// layout the previous per-row serialisation produced.
  void save(util::BinaryWriter& w) const {
    w.u64(rows_);
    w.u64(cols_);
    for (const double v : values_) w.f64(v);
  }

  /// Reads a matrix previously written by save().
  [[nodiscard]] static FeatureMatrix load(util::BinaryReader& r) {
    // Bounded like a grid: rows, then columns of `rows` f64s each.
    const std::size_t rows = r.count(8);
    const std::size_t cols = r.count(rows * 8);
    FeatureMatrix m(rows, cols);
    for (double& v : m.values_) v = r.f64();
    return m;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> values_;
};

}  // namespace remgen::data
