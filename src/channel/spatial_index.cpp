#include "src/channel/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/common/contracts.h"

namespace llama::channel {

namespace {

/// Degenerate-geometry guard: a device on top of a mount still gets a
/// finite path length.
constexpr double kMinLegM = 1e-3;

/// Largest |coordinate / cell size| the grid accepts: 2^53, where doubles
/// stop being exact integers. Cell indices then fit int64 with room for
/// the ring search's differences and offsets.
constexpr double kMaxGridIndex = 9007199254740992.0;

}  // namespace

double distance_m(const Point2& a, const Point2& b) {
  return std::hypot(a.x_m - b.x_m, a.y_m - b.y_m);
}

double SurfaceLayout::coupling_at(double hop_m) const {
  const double hop = std::max(hop_m, kMinLegM);
  if (hop <= sidelobe_ref_m) return coupling0;
  return coupling0 * std::pow(sidelobe_ref_m / hop, sidelobe_exponent);
}

SpatialSurfaceIndex::SpatialSurfaceIndex(const std::vector<Point2>& positions,
                                         double cell_size_m)
    : cell_size_m_(cell_size_m), positions_(positions) {
  if (positions.empty())
    throw std::invalid_argument{"SpatialSurfaceIndex: no surface positions"};
  if (!(cell_size_m > 0.0) || !std::isfinite(cell_size_m))
    throw std::invalid_argument{
        "SpatialSurfaceIndex: cell size must be finite and > 0"};

  // Occupied grid cells sorted by (cy, cx): the cell ordinal — the frozen-
  // aggregation and shard-ownership granule — is a pure function of the
  // positions, independent of construction or thread interleaving.
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    const std::int64_t cx = grid_index(positions_[i].x_m, "surface x");
    const std::int64_t cy = grid_index(positions_[i].y_m, "surface y");
    const auto it = std::lower_bound(
        cells_.begin(), cells_.end(), std::pair{cy, cx},
        [](const Cell& c, const std::pair<std::int64_t, std::int64_t>& key) {
          return std::pair{c.cy, c.cx} < key;
        });
    if (it != cells_.end() && it->cy == cy && it->cx == cx) {
      it->surfaces.push_back(i);  // ids arrive ascending: stays sorted
    } else {
      Cell cell;
      cell.cx = cx;
      cell.cy = cy;
      cell.surfaces = {i};
      cells_.insert(it, std::move(cell));
    }
  }
  cell_of_.assign(positions_.size(), -1);
  for (std::size_t c = 0; c < cells_.size(); ++c)
    for (std::size_t s : cells_[c].surfaces)
      cell_of_[s] = static_cast<std::int32_t>(c);
  LLAMA_ENSURES(std::none_of(cell_of_.begin(), cell_of_.end(),
                             [](std::int32_t c) { return c < 0; }),
                "every surface lands in exactly one occupied cell");
}

std::int64_t SpatialSurfaceIndex::grid_index(double coord_m,
                                             const char* what) const {
  const double cell = std::floor(coord_m / cell_size_m_);
  // Checked before the cast: converting a NaN or out-of-range double to
  // int64 is undefined behaviour. NaN and +-inf fail the comparison.
  if (!(std::abs(cell) <= kMaxGridIndex))
    throw std::invalid_argument{
        std::string{"SpatialSurfaceIndex: "} + what +
        " must be finite with |coordinate / cell size| <= 2^53"};
  return static_cast<std::int64_t>(cell);
}

std::int32_t SpatialSurfaceIndex::find_cell(std::int64_t cx,
                                            std::int64_t cy) const {
  const auto it = std::lower_bound(
      cells_.begin(), cells_.end(), std::pair{cy, cx},
      [](const Cell& c, const std::pair<std::int64_t, std::int64_t>& key) {
        return std::pair{c.cy, c.cx} < key;
      });
  if (it == cells_.end() || it->cy != cy || it->cx != cx) return -1;
  return static_cast<std::int32_t>(it - cells_.begin());
}

std::int32_t SpatialSurfaceIndex::cell_of(std::size_t surface) const {
  if (surface >= cell_of_.size())
    throw std::out_of_range{"SpatialSurfaceIndex: surface id out of range"};
  return cell_of_[surface];
}

const std::vector<std::size_t>& SpatialSurfaceIndex::surfaces_in_cell(
    std::int32_t cell) const {
  if (cell < 0 || static_cast<std::size_t>(cell) >= cells_.size())
    throw std::out_of_range{"SpatialSurfaceIndex: cell ordinal out of range"};
  return cells_[static_cast<std::size_t>(cell)].surfaces;
}

std::size_t SpatialSurfaceIndex::nearest(const Point2& p) const {
  const std::int64_t px = grid_index(p.x_m, "nearest() x");
  const std::int64_t py = grid_index(p.y_m, "nearest() y");
  // The grid's occupied bounding box caps the ring search for devices far
  // outside the deployment; the nearest occupied ring says how far out the
  // first candidate lies.
  std::int64_t max_ring = 0;
  std::int64_t min_ring = std::numeric_limits<std::int64_t>::max();
  for (const Cell& c : cells_) {
    const std::int64_t ring =
        std::max(std::abs(c.cx - px), std::abs(c.cy - py));
    max_ring = std::max(max_ring, ring);
    min_ring = std::min(min_ring, ring);
  }

  double best_d = std::numeric_limits<double>::infinity();
  std::size_t best = 0;
  const auto consider = [&](std::size_t s) {
    const double d = distance_m(p, positions_[s]);
    // Strict < plus a lowest-id tie break: ties resolve to the lowest
    // surface id, deterministically, whatever the visiting order.
    if (d < best_d || (d == best_d && s < best)) {
      best_d = d;
      best = s;
    }
  };
  // The ring walk probes about (2 * min_ring + 1)^2 cells before its first
  // candidate, quadratic in the query's distance. Once that exceeds the
  // surface count a linear scan is cheaper, and it finds the same surface.
  const double walk_side = 2.0 * static_cast<double>(min_ring) + 1.0;
  if (walk_side * walk_side > static_cast<double>(positions_.size())) {
    for (std::size_t s = 0; s < positions_.size(); ++s) consider(s);
    return best;
  }
  const auto scan = [&](std::int32_t cell) {
    if (cell < 0) return;
    for (std::size_t s : cells_[static_cast<std::size_t>(cell)].surfaces)
      consider(s);
  };
  for (std::int64_t ring = min_ring; ring <= max_ring; ++ring) {
    // Any cell at Chebyshev ring r is at least (r - 1) * cell_size away
    // from p, so once a candidate beats that floor the search is complete.
    if (best_d < static_cast<double>(ring - 1) * cell_size_m_) break;
    if (ring == 0) {
      scan(find_cell(px, py));
      continue;
    }
    for (std::int64_t cx = px - ring; cx <= px + ring; ++cx) {
      scan(find_cell(cx, py - ring));
      scan(find_cell(cx, py + ring));
    }
    for (std::int64_t cy = py - ring + 1; cy <= py + ring - 1; ++cy) {
      scan(find_cell(px - ring, cy));
      scan(find_cell(px + ring, cy));
    }
  }
  LLAMA_ENSURES(best_d < std::numeric_limits<double>::infinity(),
                "a non-empty index always yields a nearest surface");
  return best;
}

CitySceneBuild build_city_scene_spec(const SpatialSurfaceIndex& index,
                                     const SurfaceLayout& layout,
                                     std::size_t serving,
                                     const Point2& device_pos,
                                     double tx_back_m) {
  if (serving >= layout.positions.size())
    throw std::out_of_range{"build_city_scene_spec: serving id out of range"};
  LLAMA_EXPECTS(index.surface_count() == layout.positions.size(),
                "index and layout describe the same deployment");

  CitySceneBuild out;
  out.serving = serving;
  out.serving_distance_m =
      std::max(distance_m(device_pos, layout.positions[serving]), kMinLegM);
  const double serving_len = tx_back_m + out.serving_distance_m;
  // Amplitude ratio floor implied by the dB cutoff; -infinity maps to 0,
  // which keeps every path (the dense scene).
  const double floor_ratio = std::pow(10.0, layout.prune.cutoff_db / 20.0);

  out.spec.placed.reserve(layout.positions.size() - 1);
  for (std::size_t s = 0; s < layout.positions.size(); ++s) {
    if (s == serving) continue;
    const double hop =
        std::max(distance_m(layout.positions[serving], layout.positions[s]),
                 kMinLegM);
    const double tail =
        std::max(distance_m(layout.positions[s], device_pos), kMinLegM);
    const double len = hop + tail;
    const double coupling = layout.coupling_at(hop);
    // Frequency-independent relative amplitude bound: both this path and
    // the serving path carry the same lambda/(4 pi) Friis prefactor, the
    // surface response norm is <= 1 (passive) and the endpoint pattern
    // factor is <= 1, so coupling * serving_len / len bounds the ratio at
    // every carrier.
    const double relative_amplitude = coupling * serving_len / len;
    if (relative_amplitude >= floor_ratio) {
      PlacedLeakageSpec placed;
      placed.path_length_m = len;
      placed.coupling = coupling;
      placed.cell = index.cell_of(s);
      placed.external_id = s;
      out.spec.placed.push_back(placed);
    } else {
      out.spec.pruned_coupling_over_length += coupling / len;
      ++out.spec.pruned_count;
    }
  }
  return out;
}

}  // namespace llama::channel
