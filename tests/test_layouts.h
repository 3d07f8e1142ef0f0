// Deployments shared by several test binaries (header-only, test-local).
#pragma once

#include <cstddef>

#include "testbed/layouts.h"

namespace digs::testing_layouts {

// A deployment wide enough (and at a shallow enough path-loss exponent)
// that the decode-radius grid spans several cells per axis: the coupling
// cutoff and cell-based shard assignment are actually exercised, unlike
// the paper-scale layouts that fit within a 2x2 block.
inline TestbedLayout city_layout() {
  TestbedLayout layout;
  layout.name = "city-grid";
  layout.num_access_points = 4;
  layout.path_loss_exponent = 3.5;
  const int side = 11;           // 121 nodes on a jittered grid
  const double pitch = 60.0;     // ~600 m square => several ~114 m cells
  layout.positions.reserve(side * side);
  // APs first (layout contract), spread across the quadrants.
  layout.positions.push_back({150.0, 150.0, 0.0});
  layout.positions.push_back({450.0, 150.0, 0.0});
  layout.positions.push_back({150.0, 450.0, 0.0});
  layout.positions.push_back({450.0, 450.0, 0.0});
  for (int gy = 0; gy < side; ++gy) {
    for (int gx = 0; gx < side; ++gx) {
      if (layout.positions.size() >= static_cast<std::size_t>(side * side)) {
        break;
      }
      // Deterministic jitter so rows don't alias the cell boundaries.
      const double jx = ((gx * 7 + gy * 13) % 10) - 4.5;
      const double jy = ((gx * 11 + gy * 3) % 10) - 4.5;
      layout.positions.push_back({gx * pitch + jx, gy * pitch + jy, 0.0});
    }
  }
  return layout;
}

}  // namespace digs::testing_layouts
