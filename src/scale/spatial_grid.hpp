#pragma once

/// \file spatial_grid.hpp
/// Uniform-grid spatial index over piecewise-linear node trajectories.
///
/// Each id covers the supercover (Amanatides–Woo traversal) of its current
/// motion segment, so membership is correct for ANY query time within the
/// segment without per-tick reindexing: the index only changes on mobility
/// waypoint events (Network::schedule_mobility), never on queries. With
/// cell size tied to the transmission range, a disc query touches the O(1)
/// cells overlapping the disc's bounding box and hands their O(k) ids to
/// the caller, which applies the same exact `distance_sq(pos, center) <=
/// r*r` filter the linear scan applies — so the surviving id set is
/// identical to the scan's, and the caller's ascending-id ordering keeps
/// event traces bit-identical (docs/SCALE.md, "Determinism argument").
///
/// Robustness: a queried position is computed as `start + v * dt`, which can
/// deviate from the ideal segment by a few ulps, so a point near a cell
/// boundary may belong to a cell adjacent to an indexed one. Padding the
/// query box by kQueryEps (far above the fp deviation at any supported
/// field size) guarantees every cell within that distance of a matching
/// position is visited; the exact filter then keeps false positives out.
/// The grid draws no randomness, reads no clocks and stores no positions.
///
/// Queries take the visitor as a template parameter and perform no
/// allocation (stamp-array dedup, preallocated in the constructor).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hpp"
#include "util/geometry.hpp"

namespace alert::scale {

class SpatialGrid {
 public:
  /// Padding added to the query box, in metres. Far above position fp error
  /// (~1e-9 m at a 100 km field), far below any meaningful radius.
  static constexpr double kQueryEps = 1e-6;

  /// `field` bounds the indexed area (positions are clamped to it, matching
  /// mobility's invariant that nodes stay in-field); `cell_size` is the
  /// cell edge in metres (tie it to the transmission range); ids are dense
  /// in [0, max_ids).
  SpatialGrid(util::Rect field, double cell_size, std::uint32_t max_ids);

  /// Replace id's coverage with the supercover of segment [a, b] (positions
  /// at the segment's start and at the earlier of segment end / horizon).
  void update(std::uint32_t id, util::Vec2 a, util::Vec2 b);

  /// Drop id from every cell it covers.
  void remove(std::uint32_t id);

  /// Call `visit(id)` once for every id covering a cell within `radius`
  /// (plus kQueryEps) of `center`: a superset of the ids whose position at
  /// the query time lies within `radius`, in no particular order.
  template <typename Visit>
  void for_each_candidate(util::Vec2 center, double radius, Visit&& visit) {
    const QueryBox box = query_box(center, radius);
    ++epoch_;
    for (std::uint32_t cy = box.cy0; cy <= box.cy1; ++cy) {
      for (std::uint32_t cx = box.cx0; cx <= box.cx1; ++cx) {
        for (const std::uint32_t id : cells_[cy * cols_ + cx]) {
          if (stamp_[id] == epoch_) continue;
          stamp_[id] = epoch_;
          visit(id);
        }
      }
    }
  }

  [[nodiscard]] std::uint32_t cols() const { return cols_; }
  [[nodiscard]] std::uint32_t rows() const { return rows_; }
  /// Cells currently covered by id (diagnostics/tests).
  [[nodiscard]] std::size_t coverage(std::uint32_t id) const {
    return id_cells_[id].size();
  }

 private:
  struct QueryBox {
    std::uint32_t cx0, cx1, cy0, cy1;
  };

  [[nodiscard]] std::uint32_t col_of(double x) const;
  [[nodiscard]] std::uint32_t row_of(double y) const;
  [[nodiscard]] QueryBox query_box(util::Vec2 center, double radius) const;

  /// Add id to cell (no-op if already covered by it).
  void insert(std::uint32_t id, std::uint32_t cell);

  util::Rect field_;
  double cell_size_;
  double inv_cell_;
  std::uint32_t cols_ = 1;
  std::uint32_t rows_ = 1;

  std::vector<std::vector<std::uint32_t>> cells_;     ///< cell -> ids
  std::vector<std::vector<std::uint32_t>> id_cells_;  ///< id -> covered cells
  std::vector<std::uint64_t> stamp_;                  ///< query dedup marks
  std::uint64_t epoch_ = 0;
};

}  // namespace alert::scale
