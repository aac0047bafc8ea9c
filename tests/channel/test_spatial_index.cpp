// SpatialSurfaceIndex + build-time pruning contracts: the index is a pure
// deterministic function of the positions (nearest matches brute force,
// cells partition the id space), and the pruning error bound is PROVABLE —
// for random cities, random passive responses and every fleet size, the
// dense and pruned received fields never differ by more than
// PropagationScene::pruned_field_bound, while a -infinity cutoff rebuilds
// the dense scene exactly.
#include "src/channel/spatial_index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "src/channel/propagation_scene.h"
#include "src/common/rng.h"
#include "src/metasurface/metasurface.h"

namespace llama::channel {
namespace {

using common::Frequency;
using common::PowerDbm;

const Frequency kF0 = Frequency::ghz(2.44);
const PowerDbm kTx{14.0};

std::vector<Point2> random_positions(common::Rng& rng, std::size_t m,
                                     double extent_m) {
  std::vector<Point2> positions;
  positions.reserve(m);
  for (std::size_t i = 0; i < m; ++i)
    positions.push_back(
        Point2{rng.uniform(0.0, extent_m), rng.uniform(0.0, extent_m)});
  return positions;
}

TEST(SpatialSurfaceIndex, RejectsDegenerateInputs) {
  EXPECT_THROW(SpatialSurfaceIndex({}, 10.0), std::invalid_argument);
  const std::vector<Point2> one{{1.0, 2.0}};
  EXPECT_THROW(SpatialSurfaceIndex(one, 0.0), std::invalid_argument);
  EXPECT_THROW(SpatialSurfaceIndex(one, -3.0), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(SpatialSurfaceIndex(one, nan), std::invalid_argument);
  EXPECT_THROW(SpatialSurfaceIndex(one, inf), std::invalid_argument);
}

// Cell indices are floor(coord / cell size) cast to int64: a NaN, an
// infinity or a huge coordinate must be rejected before the cast, which
// would otherwise be undefined behaviour (float-cast-overflow under UBSan).
TEST(SpatialSurfaceIndex, RejectsNonFiniteAndOutOfRangeCoordinates) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double two53 = 9007199254740992.0;
  for (const Point2 bad : {Point2{1e300, 0.0}, Point2{0.0, -1e300},
                           Point2{nan, 0.0}, Point2{0.0, inf},
                           Point2{2.0 * two53, 0.0}}) {
    const std::vector<Point2> positions{{1.0, 2.0}, bad};
    EXPECT_THROW(SpatialSurfaceIndex(positions, 1.0), std::invalid_argument)
        << bad.x_m << ", " << bad.y_m;
  }
  // The bound is on the cell index, so a tiny cell size rejects a modest
  // coordinate too.
  EXPECT_THROW(SpatialSurfaceIndex({{1.0, 0.0}}, 1e-300),
               std::invalid_argument);
  // 2^53 cells out is still representable.
  const SpatialSurfaceIndex edge({{two53, 0.0}}, 1.0);
  EXPECT_EQ(edge.nearest({two53, 0.0}), 0u);

  const SpatialSurfaceIndex index({{1.0, 2.0}, {30.0, 40.0}}, 10.0);
  for (const Point2 bad : {Point2{nan, 0.0}, Point2{0.0, nan},
                           Point2{inf, 0.0}, Point2{1e300, 0.0}}) {
    EXPECT_THROW((void)index.nearest(bad), std::invalid_argument)
        << bad.x_m << ", " << bad.y_m;
  }
  EXPECT_EQ(index.nearest({2.0, 2.0}), 0u);
  EXPECT_EQ(index.nearest({29.0, 41.0}), 1u);
}

TEST(SpatialSurfaceIndex, CellsPartitionTheSurfaceIds) {
  common::Rng rng{0xCE11};
  const std::vector<Point2> positions = random_positions(rng, 97, 200.0);
  const SpatialSurfaceIndex index{positions, 24.0};

  ASSERT_EQ(index.surface_count(), positions.size());
  std::vector<int> seen(positions.size(), 0);
  for (std::int32_t c = 0; c < static_cast<std::int32_t>(index.cell_count());
       ++c) {
    const std::vector<std::size_t>& cell = index.surfaces_in_cell(c);
    ASSERT_FALSE(cell.empty()) << "occupied cells only";
    for (std::size_t k = 0; k < cell.size(); ++k) {
      if (k > 0) EXPECT_LT(cell[k - 1], cell[k]) << "ascending ids per cell";
      EXPECT_EQ(index.cell_of(cell[k]), c);
      ++seen[cell[k]];
    }
  }
  for (std::size_t s = 0; s < positions.size(); ++s)
    EXPECT_EQ(seen[s], 1) << "surface " << s << " in exactly one cell";
  EXPECT_THROW((void)index.cell_of(positions.size()), std::out_of_range);
  EXPECT_THROW((void)index.surfaces_in_cell(-1), std::out_of_range);
  EXPECT_THROW(
      (void)index.surfaces_in_cell(static_cast<std::int32_t>(
          index.cell_count())),
      std::out_of_range);
}

TEST(SpatialSurfaceIndex, NearestMatchesBruteForceIncludingFarQueries) {
  common::Rng rng{0x4EA6};
  const std::vector<Point2> positions = random_positions(rng, 64, 150.0);
  const SpatialSurfaceIndex index{positions, 17.0};

  for (int q = 0; q < 200; ++q) {
    // Every third query lands far outside the deployment's bounding box to
    // exercise the ring-search cap.
    const double extent = (q % 3 == 0) ? 600.0 : 150.0;
    const Point2 p{rng.uniform(-extent / 2.0, extent),
                   rng.uniform(-extent / 2.0, extent)};
    std::size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < positions.size(); ++s) {
      const double d = distance_m(p, positions[s]);
      if (d < best_d) {
        best_d = d;
        best = s;
      }
    }
    EXPECT_EQ(index.nearest(p), best) << "query " << q;
  }
}

std::size_t brute_force_nearest(const std::vector<Point2>& positions,
                                const Point2& p) {
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < positions.size(); ++s) {
    const double d = distance_m(p, positions[s]);
    if (d < best_d) {  // strict: ties stay on the lowest id
      best_d = d;
      best = s;
    }
  }
  return best;
}

// A 4 x 4 street grid at 12 m pitch in 24 m cells. Near, far and exactly
// tied queries all agree with brute force (ties go to the lowest id). The
// far queries used to walk thousands of empty rings (a query 120 km out
// took most of a second); the 10,000 km ones would not finish at all
// without the linear-scan fallback.
TEST(SpatialSurfaceIndex, NearestMatchesBruteForceOnNearFarAndTiedQueries) {
  std::vector<Point2> positions;
  for (int row = 0; row < 4; ++row)
    for (int col = 0; col < 4; ++col)
      positions.push_back(Point2{12.0 * col, 12.0 * row});
  const SpatialSurfaceIndex index{positions, 24.0};

  std::vector<Point2> queries = {
      {1.0, 2.0},    {13.0, 35.0}, {40.0, -3.0},  // near
      {6.0, 0.0},    {6.0, 6.0},   {30.0, 18.0},  // tied between mounts
      {-6.0, 6.0},   {18.0, 42.0},                // tied, just outside
  };
  for (const double out : {2.4e3, 24e3, 120e3, 1e7})
    for (const Point2 dir : {Point2{1.0, 0.0}, Point2{0.0, -1.0},
                             Point2{-0.6, 0.8}, Point2{0.0, 1.0}}) {
      queries.push_back(Point2{dir.x_m * out, dir.y_m * out});
      // On the x = 6 m symmetry line: columns 0 and 1 tie exactly.
      queries.push_back(Point2{6.0, dir.y_m * out});
    }
  for (const Point2& p : queries)
    EXPECT_EQ(index.nearest(p), brute_force_nearest(positions, p))
        << "query (" << p.x_m << ", " << p.y_m << ")";
  EXPECT_EQ(index.nearest({6.0, 6.0}), 0u);
  EXPECT_EQ(index.nearest({6.0, -120e3}), 0u);
  EXPECT_EQ(index.nearest({6.0, 120e3}), 12u);
}

TEST(SpatialSurfaceIndex, PureFunctionOfPositions) {
  common::Rng rng{0xDE7E};
  const std::vector<Point2> positions = random_positions(rng, 48, 120.0);
  const SpatialSurfaceIndex a{positions, 24.0};
  const SpatialSurfaceIndex b{positions, 24.0};
  ASSERT_EQ(a.cell_count(), b.cell_count());
  for (std::size_t s = 0; s < positions.size(); ++s)
    EXPECT_EQ(a.cell_of(s), b.cell_of(s));
}

TEST(BuildCitySceneSpec, AccountsForEverySurfaceOnce) {
  common::Rng rng{0xACC7};
  SurfaceLayout layout;
  layout.positions = random_positions(rng, 40, 100.0);
  layout.prune.cutoff_db = -30.0;
  const SpatialSurfaceIndex index{layout.positions,
                                  layout.prune.cell_size_m};
  const Point2 device{50.0, 50.0};
  const std::size_t serving = index.nearest(device);
  EXPECT_THROW(
      build_city_scene_spec(index, layout, layout.positions.size(), device,
                            0.5),
      std::out_of_range);

  const CitySceneBuild build =
      build_city_scene_spec(index, layout, serving, device, 0.5);
  EXPECT_EQ(build.serving, serving);
  EXPECT_EQ(build.spec.placed.size() + build.spec.pruned_count,
            layout.positions.size() - 1);
  for (const PlacedLeakageSpec& p : build.spec.placed) {
    EXPECT_NE(p.external_id, serving);
    EXPECT_EQ(p.cell, index.cell_of(p.external_id));
    EXPECT_GT(p.path_length_m, 0.0);
  }
  if (build.spec.pruned_count > 0)
    EXPECT_GT(build.spec.pruned_coupling_over_length, 0.0);

  // A deeper cutoff keeps a superset of the shallow cutoff's paths.
  SurfaceLayout deeper = layout;
  deeper.prune.cutoff_db = -60.0;
  const CitySceneBuild more =
      build_city_scene_spec(index, deeper, serving, device, 0.5);
  EXPECT_GE(more.spec.placed.size(), build.spec.placed.size());
  for (std::size_t k = 0, j = 0; k < build.spec.placed.size(); ++k) {
    while (j < more.spec.placed.size() &&
           more.spec.placed[j].external_id !=
               build.spec.placed[k].external_id)
      ++j;
    ASSERT_LT(j, more.spec.placed.size())
        << "kept path lost when deepening the cutoff";
  }
}

// ---------------------------------------------------------------------------
// Randomized pruning error-bound property suite (the provable tentpole
// claim): random placements, random layout couplings, random passive
// responses; |sqrt(P_dense) - sqrt(P_pruned)| <= pruned_field_bound.
// ---------------------------------------------------------------------------

struct CityFixture {
  SurfaceLayout layout;
  std::size_t serving = 0;
  LinkGeometry geometry;
  Environment environment = Environment::absorber_chamber();
  Antenna tx = Antenna::iot_dipole(common::Angle::degrees(0.0));
  Antenna rx = Antenna::iot_dipole(common::Angle::degrees(0.0));
  PropagationScene scene;        ///< pruned
  PropagationScene dense_scene;  ///< cutoff = -infinity
  std::vector<const em::JonesMatrix*> view;
  std::vector<const em::JonesMatrix*> dense_view;

  CityFixture(std::size_t m, common::Rng& rng,
              const std::vector<em::JonesMatrix>& samples)
      : scene(PropagationScene::single_link(tx, rx, LinkGeometry{},
                                            environment)),
        dense_scene(scene) {
    layout.positions = random_positions(rng, m, 30.0 * std::sqrt(
                                                        static_cast<double>(
                                                            m)));
    layout.coupling0 = rng.uniform(0.05, 0.3);
    layout.sidelobe_ref_m = rng.uniform(5.0, 15.0);
    layout.sidelobe_exponent = rng.uniform(1.0, 2.5);
    // Shallow enough that most trials prune a real fraction of the city.
    layout.prune.cutoff_db = rng.uniform(-45.0, -25.0);

    const SpatialSurfaceIndex index{layout.positions,
                                    layout.prune.cell_size_m};
    const Point2 device{rng.uniform(0.0, 30.0), rng.uniform(0.0, 30.0)};
    serving = index.nearest(device);
    const CitySceneBuild pruned =
        build_city_scene_spec(index, layout, serving, device, 0.5);
    SurfaceLayout dense_layout = layout;
    dense_layout.prune.cutoff_db =
        -std::numeric_limits<double>::infinity();
    const CitySceneBuild dense =
        build_city_scene_spec(index, dense_layout, serving, device, 0.5);
    EXPECT_EQ(dense.spec.pruned_count, 0u);
    EXPECT_EQ(dense.spec.placed.size(), m - 1);

    geometry.mode = metasurface::SurfaceMode::kTransmissive;
    geometry.tx_surface_distance_m = 0.5;
    geometry.tx_rx_distance_m = 0.5 + pruned.serving_distance_m;
    rx = rx.oriented(common::Angle::degrees(rng.uniform(0.0, 180.0)));
    scene = PropagationScene::from_spec(tx, rx, geometry, environment,
                                        pruned.spec);
    dense_scene = PropagationScene::from_spec(tx, rx, geometry, environment,
                                              dense.spec);

    // One passive response per deployment surface, shared by both scenes
    // (scene ids differ; deployment ids agree).
    std::vector<const em::JonesMatrix*> by_deployment(m, nullptr);
    for (std::size_t s = 0; s < m; ++s)
      by_deployment[s] =
          &samples[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<int>(samples.size()) - 1))];
    view.push_back(by_deployment[serving]);
    for (const PlacedLeakageSpec& p : pruned.spec.placed)
      view.push_back(by_deployment[p.external_id]);
    dense_view.push_back(by_deployment[serving]);
    for (const PlacedLeakageSpec& p : dense.spec.placed)
      dense_view.push_back(by_deployment[p.external_id]);
  }
};

std::vector<em::JonesMatrix> passive_samples() {
  const metasurface::Metasurface surface =
      metasurface::Metasurface::llama_prototype();
  const std::vector<double> axis{0.0, 7.5, 15.0, 22.5, 30.0};
  std::vector<em::JonesMatrix> samples;
  const metasurface::JonesGrid grid = surface.response_grid(
      kF0, metasurface::SurfaceMode::kTransmissive, axis, axis);
  for (const std::vector<em::JonesMatrix>& row : grid)
    for (const em::JonesMatrix& r : row) samples.push_back(r);
  return samples;
}

TEST(PruningErrorBound, HoldsForRandomCitiesAtEveryFleetSize) {
  const std::vector<em::JonesMatrix> samples = passive_samples();
  common::Rng rng{0xB0B0};
  std::size_t pruned_trials = 0;
  for (const std::size_t m : {4u, 32u, 256u}) {
    for (int trial = 0; trial < 4; ++trial) {
      CityFixture fx{m, rng, samples};
      const double floor_mw =
          fx.environment.interference_floor().to_mw().value();
      const double dense_mw =
          fx.dense_scene
              .received_power(kTx, kF0,
                              PropagationScene::ResponseView{
                                  fx.dense_view.data(),
                                  fx.dense_view.size()})
              .to_mw()
              .value();
      const double pruned_mw =
          fx.scene
              .received_power(
                  kTx, kF0,
                  PropagationScene::ResponseView{fx.view.data(),
                                                 fx.view.size()})
              .to_mw()
              .value();
      const double delta =
          std::abs(std::sqrt(std::max(dense_mw - floor_mw, 0.0)) -
                   std::sqrt(std::max(pruned_mw - floor_mw, 0.0)));
      const double bound = fx.scene.pruned_field_bound(kTx, kF0);
      EXPECT_LE(delta, bound + 1e-15)
          << "m=" << m << " trial=" << trial
          << " pruned=" << fx.scene.spec().pruned_count;
      if (fx.scene.spec().pruned_count > 0) {
        EXPECT_GT(bound, 0.0);
        ++pruned_trials;
      }
    }
  }
  // The suite is vacuous if nothing was ever pruned.
  EXPECT_GE(pruned_trials, 6u);
}

TEST(PruningErrorBound, InfiniteCutoffReproducesTheDenseSum) {
  const std::vector<em::JonesMatrix> samples = passive_samples();
  common::Rng rng{0xDE46};
  SurfaceLayout layout;
  layout.positions = random_positions(rng, 32, 120.0);
  layout.coupling0 = 0.2;
  layout.prune.cutoff_db = -std::numeric_limits<double>::infinity();
  const SpatialSurfaceIndex index{layout.positions,
                                  layout.prune.cell_size_m};
  const Point2 device{60.0, 60.0};
  const std::size_t serving = index.nearest(device);
  const double tx_back_m = 0.5;
  const CitySceneBuild build =
      build_city_scene_spec(index, layout, serving, device, tx_back_m);
  ASSERT_EQ(build.spec.pruned_count, 0u);
  EXPECT_EQ(build.spec.pruned_coupling_over_length, 0.0);

  // Manually assembled dense spec with the documented amplitude model:
  // length = serving->s hop + s->device tail, coupling = layout rolloff
  // at the hop, placed ascending by deployment id.
  SceneSpec manual;
  for (std::size_t s = 0; s < layout.positions.size(); ++s) {
    if (s == serving) continue;
    PlacedLeakageSpec placed;
    const double hop =
        distance_m(layout.positions[serving], layout.positions[s]);
    placed.path_length_m = hop + distance_m(layout.positions[s], device);
    placed.coupling = layout.coupling_at(hop);
    placed.cell = index.cell_of(s);
    placed.external_id = s;
    manual.placed.push_back(placed);
  }
  ASSERT_EQ(manual.placed.size(), build.spec.placed.size());

  LinkGeometry g;
  g.mode = metasurface::SurfaceMode::kTransmissive;
  g.tx_surface_distance_m = tx_back_m;
  g.tx_rx_distance_m = tx_back_m + build.serving_distance_m;
  const Antenna tx = Antenna::iot_dipole(common::Angle::degrees(0.0));
  const Antenna rx = Antenna::iot_dipole(common::Angle::degrees(70.0));
  const Environment env = Environment::absorber_chamber();
  const PropagationScene from_build =
      PropagationScene::from_spec(tx, rx, g, env, build.spec);
  const PropagationScene from_manual =
      PropagationScene::from_spec(tx, rx, g, env, manual);

  std::vector<const em::JonesMatrix*> view;
  view.push_back(&samples[3]);
  for (const PlacedLeakageSpec& p : build.spec.placed)
    view.push_back(&samples[p.external_id % samples.size()]);
  const PropagationScene::ResponseView rv{view.data(), view.size()};
  EXPECT_NEAR(from_build.received_power(kTx, kF0, rv).value(),
              from_manual.received_power(kTx, kF0, rv).value(), 1e-12);
  EXPECT_EQ(from_build.pruned_field_bound(kTx, kF0), 0.0);
}

}  // namespace
}  // namespace llama::channel
