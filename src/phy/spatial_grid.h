// Uniform 2D cell partition of the node positions, sized by the radio's
// provable decode radius (PR 2's ±6σ fading margin inverted through the
// pure path-loss curve). Two nodes can only couple — decode each other or
// contribute co-channel interference — when their cells are within one
// step in x and y (the 3×3 "neighborhood"). That cutoff is what turns the
// O(N²) medium tables into per-cell sparse rows and lets per-slot
// receptions resolve shard-parallel with only boundary-cell cross terms.
//
// The filter is part of the propagation model, applied identically in
// every reception path and at every shard count, so results are invariant
// to sharding. It only becomes active when the deployment spans at least
// three cells along some axis; every paper-scale layout (Testbed A/B,
// Cooja-150) fits within a 2×2 block, where all cells are mutually
// adjacent and the filter admits every pair — those runs stay bit-identical
// to the pre-grid model.
#pragma once

#include <cstdint>
#include <vector>

#include "phy/geometry.h"

namespace digs {

class SpatialGrid {
 public:
  /// Inactive grid: every pair is coupled.
  SpatialGrid() = default;

  /// Partitions `positions` (x, y only; floors attenuate but never widen
  /// the decode radius) into square cells of `cell_size_m`.
  SpatialGrid(const std::vector<Position>& positions, double cell_size_m);

  [[nodiscard]] bool built() const { return !cell_x_.empty(); }

  /// True when the 3×3-neighborhood filter can prune at least one cell
  /// pair (three or more cells along some axis). While inactive, coupled()
  /// is constant-true and the grid only provides the cell lists.
  [[nodiscard]] bool active() const { return active_; }

  [[nodiscard]] std::uint32_t cols() const { return cols_; }
  [[nodiscard]] std::uint32_t rows() const { return rows_; }
  /// Number of partitioned nodes (0 while unbuilt).
  [[nodiscard]] std::size_t num_nodes() const { return cell_x_.size(); }
  [[nodiscard]] std::size_t num_cells() const {
    return static_cast<std::size_t>(cols_) * rows_;
  }
  [[nodiscard]] double cell_size_m() const { return cell_size_m_; }

  /// Flat cell index of node `i` (row-major).
  [[nodiscard]] std::uint32_t cell_of(std::uint16_t i) const {
    return static_cast<std::uint32_t>(cell_y_[i]) * cols_ + cell_x_[i];
  }

  /// True when `a` and `b` are within one cell step in both axes (or the
  /// filter is inactive). This is the model's coupling cutoff.
  [[nodiscard]] bool coupled(std::uint16_t a, std::uint16_t b) const {
    if (!active_) return true;
    const int dx = static_cast<int>(cell_x_[a]) - static_cast<int>(cell_x_[b]);
    const int dy = static_cast<int>(cell_y_[a]) - static_cast<int>(cell_y_[b]);
    return dx >= -1 && dx <= 1 && dy >= -1 && dy <= 1;
  }

  /// All node ids in the 3×3 neighborhood around `i`'s cell (including `i`
  /// itself), ascending. When the grid is unbuilt or inactive this is every
  /// node — the degenerate case where sparse rows are simply dense.
  void neighborhood(std::uint16_t i, std::vector<std::uint16_t>& out) const;

  /// Cell coordinates an arbitrary position (e.g. a jammer, which is not a
  /// node) falls into, clamped to the grid extent so off-map sources land in
  /// the nearest border cell. Clamping only shrinks the per-axis separation
  /// to every grid cell, so distance lower bounds derived from these
  /// coordinates stay valid for off-map positions. Only meaningful while
  /// built().
  void cell_coords_of(const Position& p, std::uint32_t& cx,
                      std::uint32_t& cy) const {
    const auto clamp_axis = [](double v, double min_v, double cell,
                               std::uint32_t n) -> std::uint32_t {
      if (cell <= 0.0 || n == 0) return 0;
      const double f = (v - min_v) / cell;
      if (f <= 0.0) return 0;
      const auto c = static_cast<std::uint32_t>(f);
      return c >= n ? n - 1 : c;
    };
    cx = clamp_axis(p.x, min_x_, cell_size_m_, cols_);
    cy = clamp_axis(p.y, min_y_, cell_size_m_, rows_);
  }

 private:
  std::uint32_t cols_{1};
  std::uint32_t rows_{1};
  double cell_size_m_{0.0};
  double min_x_{0.0};
  double min_y_{0.0};
  bool active_{false};
  std::vector<std::uint16_t> cell_x_;
  std::vector<std::uint16_t> cell_y_;
  std::vector<std::vector<std::uint16_t>> cells_;
};

}  // namespace digs
