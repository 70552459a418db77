// Contiguous row-major feature storage for the ML stage.
//
// Replaces the std::vector<std::vector<double>> row set: one allocation for
// the whole matrix, so distance kernels scan training rows cache-linearly
// instead of chasing a pointer per row.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

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

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> values_;
};

}  // namespace remgen::data
