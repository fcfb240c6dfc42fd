#include "scale/spatial_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/geometry.hpp"
#include "util/rng.hpp"

namespace alert::scale {
namespace {

constexpr util::Rect kField{0.0, 0.0, 1000.0, 1000.0};

/// Brute-force reference: ids whose position is within radius, ascending.
std::vector<std::uint32_t> scan_disc(const std::vector<util::Vec2>& pos,
                                     util::Vec2 center, double radius) {
  std::vector<std::uint32_t> out;
  const double r_sq = radius * radius;
  for (std::uint32_t id = 0; id < pos.size(); ++id) {
    if (util::distance_sq(pos[id], center) <= r_sq) out.push_back(id);
  }
  return out;
}

/// The grid's candidates under the scan's exact filter, ascending (what
/// net::Network does with them).
std::vector<std::uint32_t> grid_disc(SpatialGrid& grid,
                                     const std::vector<util::Vec2>& pos,
                                     util::Vec2 center, double radius) {
  std::vector<std::uint32_t> out;
  const double r_sq = radius * radius;
  grid.for_each_candidate(center, radius, [&](std::uint32_t id) {
    if (util::distance_sq(pos[id], center) <= r_sq) out.push_back(id);
  });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SpatialGrid, DimensionsCoverField) {
  const SpatialGrid grid(kField, 250.0, 8);
  EXPECT_EQ(grid.cols(), 4u);
  EXPECT_EQ(grid.rows(), 4u);
}

TEST(SpatialGrid, PointQueryMatchesScan) {
  util::Rng rng(7);
  std::vector<util::Vec2> pos;
  SpatialGrid grid(kField, 250.0, 200);
  for (std::uint32_t id = 0; id < 200; ++id) {
    pos.push_back(rng.point_in(kField));
    grid.update(id, pos.back(), pos.back());
  }
  for (int q = 0; q < 100; ++q) {
    const util::Vec2 center = rng.point_in(kField);
    EXPECT_EQ(grid_disc(grid, pos, center, 250.0),
              scan_disc(pos, center, 250.0));
  }
}

TEST(SpatialGrid, VisitsEachCandidateOnce) {
  // Long segments cover many cells of one query box; the visitor still
  // sees each id at most once, and a field-wide query sees every id.
  util::Rng rng(8);
  constexpr std::uint32_t kIds = 100;
  SpatialGrid grid(kField, 250.0, kIds);
  for (std::uint32_t id = 0; id < kIds; ++id) {
    grid.update(id, rng.point_in(kField), rng.point_in(kField));
  }
  for (int q = 0; q < 50; ++q) {
    std::vector<int> visits(kIds, 0);
    grid.for_each_candidate(rng.point_in(kField), 250.0,
                            [&visits](std::uint32_t id) { ++visits[id]; });
    for (const int v : visits) EXPECT_LE(v, 1);
  }
  std::vector<int> visits(kIds, 0);
  grid.for_each_candidate({500.0, 500.0}, 1000.0,
                          [&visits](std::uint32_t id) { ++visits[id]; });
  EXPECT_EQ(visits, std::vector<int>(kIds, 1));
}

TEST(SpatialGrid, SegmentCoverageFindsEveryInterpolatedPosition) {
  // A moving id must be findable at every time within its segment: sample
  // the interpolation densely and query a tight disc around each sample.
  util::Rng rng(9);
  SpatialGrid grid(kField, 250.0, 1);
  for (int trial = 0; trial < 50; ++trial) {
    const util::Vec2 a = rng.point_in(kField);
    const util::Vec2 b = rng.point_in(kField);
    grid.update(0, a, b);
    for (int s = 0; s <= 20; ++s) {
      const double t = static_cast<double>(s) / 20.0;
      const util::Vec2 p{a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t};
      const std::vector<util::Vec2> pos{p};
      EXPECT_EQ(grid_disc(grid, pos, p, 1.0), std::vector<std::uint32_t>{0})
          << "trial " << trial << " s " << s;
    }
  }
}

TEST(SpatialGrid, UpdateReplacesCoverage) {
  SpatialGrid grid(kField, 250.0, 1);
  grid.update(0, {10.0, 10.0}, {990.0, 990.0});  // long diagonal: many cells
  const std::size_t long_cover = grid.coverage(0);
  EXPECT_GT(long_cover, 3u);
  grid.update(0, {10.0, 10.0}, {10.0, 10.0});  // shrink to a point
  EXPECT_LE(grid.coverage(0), 2u);  // corner points may pad to a neighbour
  const std::vector<util::Vec2> pos{{500.0, 500.0}};
  EXPECT_TRUE(grid_disc(grid, pos, {500.0, 500.0}, 10.0).empty())
      << "stale coverage from the previous segment survived update()";
}

TEST(SpatialGrid, RemoveDropsId) {
  SpatialGrid grid(kField, 250.0, 2);
  grid.update(0, {100.0, 100.0}, {100.0, 100.0});
  grid.update(1, {100.0, 100.0}, {100.0, 100.0});
  grid.remove(0);
  const std::vector<util::Vec2> pos{{100.0, 100.0}, {100.0, 100.0}};
  EXPECT_EQ(grid_disc(grid, pos, {100.0, 100.0}, 50.0),
            std::vector<std::uint32_t>{1});
  EXPECT_EQ(grid.coverage(0), 0u);
}

TEST(SpatialGrid, OutOfFieldPositionsAreClamped) {
  SpatialGrid grid(kField, 250.0, 1);
  grid.update(0, {-50.0, 1500.0}, {-50.0, 1500.0});
  const std::vector<util::Vec2> pos{{0.0, 1000.0}};
  EXPECT_EQ(grid_disc(grid, pos, {0.0, 1000.0}, 1.0),
            std::vector<std::uint32_t>{0});
}

TEST(SpatialGrid, MovingIdsMatchScanAtInterpolatedTimes) {
  // The Network usage pattern: segments indexed once, queried at arbitrary
  // intermediate times with interpolated positions.
  util::Rng rng(11);
  const std::uint32_t n = 150;
  std::vector<util::Vec2> from;
  std::vector<util::Vec2> to;
  SpatialGrid grid(kField, 250.0, n);
  for (std::uint32_t id = 0; id < n; ++id) {
    from.push_back(rng.point_in(kField));
    to.push_back(rng.point_in(kField));
    grid.update(id, from[id], to[id]);
  }
  for (int q = 0; q < 60; ++q) {
    const double t = rng.uniform(0.0, 1.0);
    std::vector<util::Vec2> pos;
    for (std::uint32_t id = 0; id < n; ++id) {
      pos.push_back({from[id].x + (to[id].x - from[id].x) * t,
                     from[id].y + (to[id].y - from[id].y) * t});
    }
    const util::Vec2 center = rng.point_in(kField);
    const double radius = rng.uniform(50.0, 400.0);
    EXPECT_EQ(grid_disc(grid, pos, center, radius),
              scan_disc(pos, center, radius));
  }
}

TEST(SpatialGrid, TinyCellSizeIsClamped) {
  // Degenerate cell sizes must not explode the cell table.
  const SpatialGrid grid(kField, 0.0, 1);
  EXPECT_GE(grid.cols(), 1u);
  EXPECT_GE(grid.rows(), 1u);
}

}  // namespace
}  // namespace alert::scale
