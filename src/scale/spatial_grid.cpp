#include "scale/spatial_grid.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace alert::scale {

SpatialGrid::SpatialGrid(util::Rect field, double cell_size,
                         std::uint32_t max_ids)
    : field_(field),
      // Floor the cell size so a degenerate configuration (zero radio
      // range, huge field) cannot blow up the cell table: at most 4096
      // cells per axis, never below 1 mm.
      cell_size_(std::max({cell_size, 1e-3,
                           std::max(field.width(), field.height()) / 4096.0})),
      inv_cell_(1.0 / cell_size_) {
  ALERT_INVARIANT(field.width() >= 0.0 && field.height() >= 0.0,
                  "SpatialGrid field must be non-degenerate");
  cols_ = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(field.width() * inv_cell_)));
  rows_ = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(field.height() * inv_cell_)));
  cells_.resize(static_cast<std::size_t>(cols_) * rows_);
  id_cells_.resize(max_ids);
  stamp_.assign(max_ids, 0);
}

std::uint32_t SpatialGrid::col_of(double x) const {
  const double c = std::floor((x - field_.min.x) * inv_cell_);
  if (c <= 0.0) return 0;
  const auto col = static_cast<std::uint32_t>(c);
  return col >= cols_ ? cols_ - 1 : col;
}

std::uint32_t SpatialGrid::row_of(double y) const {
  const double r = std::floor((y - field_.min.y) * inv_cell_);
  if (r <= 0.0) return 0;
  const auto row = static_cast<std::uint32_t>(r);
  return row >= rows_ ? rows_ - 1 : row;
}

SpatialGrid::QueryBox SpatialGrid::query_box(util::Vec2 center,
                                             double radius) const {
  const double pad = radius + kQueryEps;
  return QueryBox{col_of(center.x - pad), col_of(center.x + pad),
                  row_of(center.y - pad), row_of(center.y + pad)};
}

void SpatialGrid::insert(std::uint32_t id, std::uint32_t cell) {
  std::vector<std::uint32_t>& covered = id_cells_[id];
  if (std::find(covered.begin(), covered.end(), cell) != covered.end()) return;
  covered.push_back(cell);
  cells_[cell].push_back(id);
}

void SpatialGrid::update(std::uint32_t id, util::Vec2 a, util::Vec2 b) {
  ALERT_INVARIANT(id < id_cells_.size(), "SpatialGrid::update id out of range");
  remove(id);
  a = field_.clamp(a);
  b = field_.clamp(b);

  std::uint32_t cx = col_of(a.x);
  std::uint32_t cy = row_of(a.y);
  const std::uint32_t ex = col_of(b.x);
  const std::uint32_t ey = row_of(b.y);
  insert(id, cy * cols_ + cx);
  if (cx == ex && cy == ey) return;

  // Amanatides–Woo traversal from a to b: t is the segment parameter in
  // [0, 1]; t_max_* is the t at which the ray crosses the next cell
  // boundary along that axis, t_delta_* the t per whole cell.
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  const int step_x = dx > 0.0 ? 1 : (dx < 0.0 ? -1 : 0);
  const int step_y = dy > 0.0 ? 1 : (dy < 0.0 ? -1 : 0);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double t_max_x = kInf;
  double t_delta_x = kInf;
  if (step_x != 0) {
    const double next_boundary =
        field_.min.x + (static_cast<double>(cx) + (step_x > 0 ? 1.0 : 0.0)) *
                           cell_size_;
    t_max_x = (next_boundary - a.x) / dx;
    t_delta_x = cell_size_ / std::abs(dx);
  }
  double t_max_y = kInf;
  double t_delta_y = kInf;
  if (step_y != 0) {
    const double next_boundary =
        field_.min.y + (static_cast<double>(cy) + (step_y > 0 ? 1.0 : 0.0)) *
                           cell_size_;
    t_max_y = (next_boundary - a.y) / dy;
    t_delta_y = cell_size_ / std::abs(dy);
  }

  // The supercover of a segment spanning w x h cells visits at most w + h
  // cells past the first; the guard only trips on fp pathology, in which
  // case the explicit endpoint insert below keeps coverage correct.
  std::int64_t guard =
      (std::abs(static_cast<std::int64_t>(ex) - cx) +
       std::abs(static_cast<std::int64_t>(ey) - cy)) + 4;
  while ((cx != ex || cy != ey) && guard-- > 0) {
    // Amanatides–Woo ray marching.
    if (t_max_x < t_max_y) {
      cx = static_cast<std::uint32_t>(static_cast<std::int64_t>(cx) + step_x);
      t_max_x += t_delta_x;
    } else if (t_max_y < t_max_x) {
      cy = static_cast<std::uint32_t>(static_cast<std::int64_t>(cy) + step_y);
      t_max_y += t_delta_y;
    } else {
      // Exact corner crossing: the segment touches the two side cells only
      // at a point, which the query box's kQueryEps pad already absorbs —
      // step both axes.
      cx = static_cast<std::uint32_t>(static_cast<std::int64_t>(cx) + step_x);
      cy = static_cast<std::uint32_t>(static_cast<std::int64_t>(cy) + step_y);
      t_max_x += t_delta_x;
      t_max_y += t_delta_y;
    }
    if (cx >= cols_ || cy >= rows_) break;  // fp drift past the clamped end
    insert(id, cy * cols_ + cx);
  }
  insert(id, ey * cols_ + ex);
}

void SpatialGrid::remove(std::uint32_t id) {
  ALERT_INVARIANT(id < id_cells_.size(), "SpatialGrid::remove id out of range");
  for (const std::uint32_t cell : id_cells_[id]) {
    std::vector<std::uint32_t>& bucket = cells_[cell];
    const auto it = std::find(bucket.begin(), bucket.end(), id);
    ALERT_ASSERT(it != bucket.end(), "SpatialGrid cell list out of sync");
    if (it != bucket.end()) {
      *it = bucket.back();
      bucket.pop_back();
    }
  }
  id_cells_[id].clear();
}

}  // namespace alert::scale
