// Golden suite: a one-surface PropagationScene must reproduce the pinned
// single-link outputs (single_link_pins.h) to 1e-12 — both modes, with and
// without multipath, batched (frozen-contribution sweep) and unbatched —
// plus the scene-only contracts: revision staleness, leakage paths, relay
// paths.
#include "src/channel/propagation_scene.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "src/metasurface/metasurface.h"
#include "tests/channel/single_link_pins.h"

namespace llama::channel {
namespace {

using common::Angle;
using common::Frequency;
using common::PowerDbm;
using common::Voltage;

const Frequency kF0 = Frequency::ghz(2.44);
const PowerDbm kTx{0.0};
constexpr double kTol = 1e-12;

LinkGeometry transmissive_geometry(double dist_m = 0.42) {
  LinkGeometry g;
  g.mode = metasurface::SurfaceMode::kTransmissive;
  g.tx_rx_distance_m = dist_m;
  g.tx_surface_distance_m = dist_m / 2.0;
  return g;
}

LinkGeometry reflective_geometry() {
  LinkGeometry g;
  g.mode = metasurface::SurfaceMode::kReflective;
  g.tx_rx_distance_m = 0.70;
  g.tx_surface_distance_m = 0.42;
  return g;
}

/// A spread of surface responses to compare the field models over.
std::vector<em::JonesMatrix> response_samples(metasurface::SurfaceMode mode) {
  const metasurface::Metasurface surface =
      metasurface::Metasurface::llama_prototype();
  const std::vector<double> axis{0.0, 7.5, 15.0, 22.5, 30.0};
  std::vector<em::JonesMatrix> samples;
  const metasurface::JonesGrid grid =
      surface.response_grid(kF0, mode, axis, axis);
  for (const std::vector<em::JonesMatrix>& row : grid)
    for (const em::JonesMatrix& r : row) samples.push_back(r);
  return samples;
}

struct ModeCase {
  const char* name;
  LinkGeometry geometry;
};

std::vector<ModeCase> mode_cases() {
  return {{"transmissive", transmissive_geometry()},
          {"reflective", reflective_geometry()}};
}

std::vector<Environment> environment_cases() {
  common::Rng rng{17};
  return {Environment::absorber_chamber(),
          Environment::with_interference(PowerDbm{-55.0}),
          Environment::laboratory(rng)};
}

TEST(PropagationSceneGolden, UnbatchedMatchesPinnedSingleLinkEverywhere) {
  const std::vector<ModeCase> modes = mode_cases();
  const std::vector<Environment> envs = environment_cases();
  for (std::size_t m = 0; m < modes.size(); ++m) {
    const ModeCase& mc = modes[m];
    const std::vector<em::JonesMatrix> samples =
        response_samples(mc.geometry.mode);
    ASSERT_EQ(samples.size(), 25u);
    for (std::size_t e = 0; e < envs.size(); ++e) {
      const double* pinned = pins::kRx90Dbm[m][e];
      const Antenna tx = Antenna::directional_10dbi(Angle::degrees(0.0));
      const Antenna rx = Antenna::directional_10dbi(Angle::degrees(90.0));
      const PropagationScene scene =
          PropagationScene::single_link(tx, rx, mc.geometry, envs[e]);

      EXPECT_NEAR(scene.received_power_without_surface(kTx, kF0).value(),
                  pinned[0], kTol)
          << mc.name;
      for (std::size_t k = 0; k < samples.size(); ++k)
        EXPECT_NEAR(
            scene.received_power_with_response(kTx, kF0, samples[k]).value(),
            pinned[k + 1], kTol)
            << mc.name << " sample " << k;
    }
  }
}

TEST(PropagationSceneGolden, MetasurfaceOverloadMatchesPinnedField) {
  metasurface::Metasurface surface = metasurface::Metasurface::llama_prototype();
  surface.set_bias(Voltage{5.0}, Voltage{25.0});
  const std::vector<ModeCase> modes = mode_cases();
  for (std::size_t m = 0; m < modes.size(); ++m) {
    const ModeCase& mc = modes[m];
    const double* pinned = pins::kFieldAt5v25v[m];
    const em::JonesVector expect{em::Complex{pinned[0], pinned[1]},
                                 em::Complex{pinned[2], pinned[3]}};
    const Antenna tx = Antenna::directional_10dbi(Angle::degrees(0.0));
    const Antenna rx = Antenna::directional_10dbi(Angle::degrees(90.0));
    const Environment env = Environment::absorber_chamber();
    const PropagationScene scene =
        PropagationScene::single_link(tx, rx, mc.geometry, env);
    const em::JonesVector got = scene.field_at_receiver(kTx, kF0, &surface);
    EXPECT_NEAR(std::abs(got.ex() - expect.ex()), 0.0, kTol) << mc.name;
    EXPECT_NEAR(std::abs(got.ey() - expect.ey()), 0.0, kTol) << mc.name;
    EXPECT_NEAR(scene.field_at_receiver(kTx, kF0, nullptr).power(),
                pinned[4], kTol)
        << mc.name;
  }
}

TEST(PropagationSceneGolden, BatchedFrozenSweepMatchesPinnedSingleLink) {
  // The frozen-contribution sweep — the deployment/codebook hot path —
  // must agree with the pinned per-cell field model exactly.
  const std::vector<ModeCase> modes = mode_cases();
  const std::vector<Environment> envs = environment_cases();
  for (std::size_t m = 0; m < modes.size(); ++m) {
    const ModeCase& mc = modes[m];
    const std::vector<em::JonesMatrix> samples =
        response_samples(mc.geometry.mode);
    ASSERT_EQ(samples.size(), 25u);
    for (std::size_t e = 0; e < envs.size(); ++e) {
      const double* pinned = pins::kRx35Dbm[m][e];
      const Antenna tx = Antenna::directional_10dbi(Angle::degrees(0.0));
      const Antenna rx = Antenna::directional_10dbi(Angle::degrees(35.0));
      const PropagationScene scene =
          PropagationScene::single_link(tx, rx, mc.geometry, envs[e]);
      const PropagationScene::FrozenEval frozen = scene.freeze_except(
          PropagationScene::kHomeSurface, kTx, kF0,
          PropagationScene::ResponseView{});
      EXPECT_NEAR(scene.received_power_without_surface(kTx, kF0).value(),
                  pinned[0], kTol)
          << mc.name;
      for (std::size_t k = 0; k < samples.size(); ++k)
        EXPECT_NEAR(scene.received_power_swept(frozen, samples[k]).value(),
                    pinned[k + 1], kTol)
            << mc.name << " sample " << k;
    }
  }
}

// ---- Revision counter / stale-plan regression (pre-fix, a mid-run
// set_geometry would silently keep serving the old geometry's frozen
// contributions).

TEST(PropagationSceneRevision, MutationsBumpRevision) {
  PropagationScene scene = PropagationScene::single_link(
      Antenna::directional_10dbi(Angle::degrees(0.0)),
      Antenna::directional_10dbi(Angle::degrees(90.0)),
      transmissive_geometry(), Environment::absorber_chamber());
  const std::uint64_t r0 = scene.revision();
  scene.set_geometry(transmissive_geometry(0.6));
  EXPECT_GT(scene.revision(), r0);
  const std::uint64_t r1 = scene.revision();
  scene.set_tx_antenna(Antenna::omni_6dbi(Angle::degrees(0.0)));
  EXPECT_GT(scene.revision(), r1);
  const std::uint64_t r2 = scene.revision();
  scene.set_rx_antenna(Antenna::omni_6dbi(Angle::degrees(45.0)));
  EXPECT_GT(scene.revision(), r2);

  // Surfaces are fixed at construction: from_spec builds every one with no
  // revision bump, leakage ids before relay ids.
  SceneSpec spec;
  spec.leakage.emplace_back();
  spec.relays.emplace_back();
  const PropagationScene built = PropagationScene::from_spec(
      Antenna::directional_10dbi(Angle::degrees(0.0)),
      Antenna::directional_10dbi(Angle::degrees(90.0)),
      transmissive_geometry(), Environment::absorber_chamber(), spec);
  EXPECT_EQ(built.revision(), 0u);
  EXPECT_EQ(built.structural_revision(), 0u);
  ASSERT_EQ(built.surface_count(), 3u);
  ASSERT_EQ(built.paths().size(), 3u);
  EXPECT_EQ(built.paths()[1].kind, PathKind::kLeakage);
  EXPECT_EQ(built.paths()[1].surfaces, (std::vector<std::size_t>{1}));
  EXPECT_EQ(built.paths()[2].kind, PathKind::kRelay);
  EXPECT_EQ(built.paths()[2].surfaces, (std::vector<std::size_t>{0, 2}));
}

// structural_revision() tracks every mutation EXCEPT set_rx_antenna: the
// rx end re-orients every tracking round, and memos that exclude it (the
// codebook config-hash prefix) must stay warm across those rounds while
// still invalidating on genuine structural drift.
TEST(PropagationSceneRevision, RxAntennaDoesNotBumpStructuralRevision) {
  SceneSpec spec;
  spec.leakage.emplace_back();
  spec.relays.emplace_back();
  PropagationScene scene = PropagationScene::from_spec(
      Antenna::directional_10dbi(Angle::degrees(0.0)),
      Antenna::directional_10dbi(Angle::degrees(90.0)),
      transmissive_geometry(), Environment::absorber_chamber(), spec);
  const std::uint64_t s0 = scene.structural_revision();
  scene.set_rx_antenna(Antenna::omni_6dbi(Angle::degrees(45.0)));
  EXPECT_EQ(scene.structural_revision(), s0);  // fast path stays memo-warm

  scene.set_geometry(transmissive_geometry(0.6));
  EXPECT_GT(scene.structural_revision(), s0);
  const std::uint64_t s1 = scene.structural_revision();
  scene.set_tx_antenna(Antenna::omni_6dbi(Angle::degrees(0.0)));
  EXPECT_GT(scene.structural_revision(), s1);
}

TEST(PropagationSceneRevision, MidRunSetGeometryInvalidatesStalePlans) {
  PropagationScene scene = PropagationScene::single_link(
      Antenna::directional_10dbi(Angle::degrees(0.0)),
      Antenna::directional_10dbi(Angle::degrees(90.0)),
      transmissive_geometry(), Environment::absorber_chamber());
  const std::vector<em::JonesMatrix> samples =
      response_samples(metasurface::SurfaceMode::kTransmissive);
  const PropagationScene::FrozenEval frozen = scene.freeze_except(
      PropagationScene::kHomeSurface, kTx, kF0,
      PropagationScene::ResponseView{});
  // Valid before the mutation...
  EXPECT_NO_THROW((void)scene.received_power_swept(frozen, samples[0]));
  // ...rejected after it: the frozen Friis/phase state belongs to the old
  // geometry and must not be served.
  scene.set_geometry(transmissive_geometry(0.8));
  EXPECT_THROW((void)scene.received_power_swept(frozen, samples[0]),
               std::logic_error);
  // A fresh freeze reflects the new geometry exactly.
  const PropagationScene::FrozenEval fresh = scene.freeze_except(
      PropagationScene::kHomeSurface, kTx, kF0,
      PropagationScene::ResponseView{});
  ASSERT_EQ(samples.size(), 25u);
  for (std::size_t k = 0; k < samples.size(); ++k)
    EXPECT_NEAR(scene.received_power_swept(fresh, samples[k]).value(),
                pins::kTransmissive80cmDbm[k], kTol);
}

TEST(PropagationSceneRevision, AntennaMutationsAlsoInvalidate) {
  PropagationScene scene = PropagationScene::single_link(
      Antenna::directional_10dbi(Angle::degrees(0.0)),
      Antenna::directional_10dbi(Angle::degrees(90.0)),
      reflective_geometry(), Environment::absorber_chamber());
  const std::vector<em::JonesMatrix> samples =
      response_samples(metasurface::SurfaceMode::kReflective);
  PropagationScene::FrozenEval frozen = scene.freeze_except(
      PropagationScene::kHomeSurface, kTx, kF0,
      PropagationScene::ResponseView{});
  scene.set_rx_antenna(scene.rx_antenna().oriented(Angle::degrees(30.0)));
  EXPECT_THROW((void)scene.received_power_swept(frozen, samples[0]),
               std::logic_error);
  frozen = scene.freeze_except(PropagationScene::kHomeSurface, kTx, kF0,
                               PropagationScene::ResponseView{});
  scene.set_tx_antenna(scene.tx_antenna().rotated(Angle::degrees(10.0)));
  EXPECT_THROW((void)scene.received_power_swept(frozen, samples[0]),
               std::logic_error);
}

TEST(PropagationSceneRevision, FreezeAfterSetRxAntennaMatchesFreshScene) {
  // A freeze taken after set_rx_antenna must see the new receiver only:
  // the plane equals, bit for bit, that of a scene built with the new
  // antenna from the start, and both match the pinned plane.
  common::Rng rng{17};
  const Environment env = Environment::laboratory(rng);
  const LinkGeometry g = transmissive_geometry();
  const Antenna tx = Antenna::directional_10dbi(Angle::degrees(0.0));
  const Antenna omni = Antenna::omni_6dbi(Angle::degrees(45.0));
  PropagationScene swapped = PropagationScene::single_link(
      tx, Antenna::directional_10dbi(Angle::degrees(90.0)), g, env);
  swapped.set_rx_antenna(omni);
  const PropagationScene fresh =
      PropagationScene::single_link(tx, omni, g, env);
  const PropagationScene::FrozenEval swapped_fz = swapped.freeze_except(
      PropagationScene::kHomeSurface, kTx, kF0,
      PropagationScene::ResponseView{});
  const PropagationScene::FrozenEval fresh_fz = fresh.freeze_except(
      PropagationScene::kHomeSurface, kTx, kF0,
      PropagationScene::ResponseView{});
  const std::vector<em::JonesMatrix> samples = response_samples(g.mode);
  ASSERT_EQ(samples.size(), 25u);
  for (std::size_t k = 0; k < samples.size(); ++k) {
    const double got =
        swapped.received_power_swept(swapped_fz, samples[k]).value();
    EXPECT_EQ(got, fresh.received_power_swept(fresh_fz, samples[k]).value())
        << "sample " << k;
    EXPECT_NEAR(got, pins::kOmni45AfterSetRxDbm[k], kTol) << "sample " << k;
  }
}

// ---- Multi-surface topologies.

TEST(PropagationSceneLeakage, AbsentLeakageSurfaceIsSingleLink) {
  const Antenna tx = Antenna::iot_dipole(Angle::degrees(0.0));
  const Antenna rx = Antenna::iot_dipole(Angle::degrees(70.0));
  const Environment env = Environment::absorber_chamber();
  const PropagationScene single =
      PropagationScene::single_link(tx, rx, transmissive_geometry(1.0), env);
  SceneSpec spec;
  spec.leakage.push_back(LeakageSurfaceSpec{});
  const PropagationScene leaky = PropagationScene::from_spec(
      tx, rx, transmissive_geometry(1.0), env, spec);
  EXPECT_EQ(leaky.surface_count(), 2u);
  const std::vector<em::JonesMatrix> samples =
      response_samples(metasurface::SurfaceMode::kTransmissive);
  // With the leakage surface unprogrammed (nullptr) its path drops out.
  for (const em::JonesMatrix& r : samples) {
    const em::JonesMatrix* home[] = {&r, nullptr};
    EXPECT_NEAR(leaky.received_power(kTx, kF0, home).value(),
                single.received_power_with_response(kTx, kF0, r).value(),
                kTol);
  }
}

TEST(PropagationSceneLeakage, ProgrammedLeakagePerturbsAndZeroCouplingDoesNot) {
  const Antenna tx = Antenna::iot_dipole(Angle::degrees(0.0));
  const Antenna rx = Antenna::iot_dipole(Angle::degrees(70.0));
  const Environment env = Environment::absorber_chamber();
  const std::vector<em::JonesMatrix> samples =
      response_samples(metasurface::SurfaceMode::kTransmissive);
  const em::JonesMatrix& home = samples[3];
  const em::JonesMatrix& other = samples[17];

  SceneSpec spec;
  spec.leakage.push_back(LeakageSurfaceSpec{0.4, 0.15});
  const PropagationScene leaky = PropagationScene::from_spec(
      tx, rx, transmissive_geometry(1.0), env, spec);
  const em::JonesMatrix* both[] = {&home, &other};
  const em::JonesMatrix* alone[] = {&home, nullptr};
  EXPECT_NE(leaky.received_power(kTx, kF0, both).value(),
            leaky.received_power(kTx, kF0, alone).value());
  // The leakage path alone carries measurable power...
  const em::JonesMatrix* leak_only[] = {nullptr, &other};
  double leak_mw = 0.0;
  for (std::size_t p = 0; p < leaky.paths().size(); ++p)
    if (leaky.paths()[p].kind == PathKind::kLeakage)
      leak_mw += leaky.path_power(p, kTx, kF0, leak_only).value();
  EXPECT_GT(leak_mw, 0.0);

  // ...and a zero-coupling leakage surface contributes nothing.
  SceneSpec mute;
  mute.leakage.push_back(LeakageSurfaceSpec{0.4, 0.0});
  const PropagationScene muted = PropagationScene::from_spec(
      tx, rx, transmissive_geometry(1.0), env, mute);
  EXPECT_NEAR(muted.received_power(kTx, kF0, both).value(),
              muted.received_power(kTx, kF0, alone).value(), kTol);
}

TEST(PropagationSceneRelay, RelayPathComposesBothResponses) {
  const Antenna tx = Antenna::directional_10dbi(Angle::degrees(0.0));
  const Antenna rx = Antenna::directional_10dbi(Angle::degrees(90.0));
  const Environment env = Environment::absorber_chamber();
  LinkGeometry g = transmissive_geometry(3.0);
  g.tx_surface_distance_m = 1.0;
  SceneSpec spec;
  spec.relays.push_back(RelaySurfaceSpec{1.0, 1.0, 0.9});
  const PropagationScene relay =
      PropagationScene::from_spec(tx, rx, g, env, spec);
  EXPECT_EQ(relay.surface_count(), 2u);
  ASSERT_EQ(relay.paths().size(), 2u);
  EXPECT_EQ(relay.paths()[1].kind, PathKind::kRelay);

  const std::vector<em::JonesMatrix> samples =
      response_samples(metasurface::SurfaceMode::kTransmissive);
  const em::JonesMatrix& home = samples[5];
  const em::JonesMatrix& hop = samples[11];
  // Relay absent -> exactly the single-link power.
  const PropagationScene single = PropagationScene::single_link(tx, rx, g, env);
  const em::JonesMatrix* alone[] = {&home, nullptr};
  EXPECT_NEAR(relay.received_power(kTx, kF0, alone).value(),
              single.received_power_with_response(kTx, kF0, home).value(),
              kTol);
  // Relay programmed -> the chained term shows up, and the batched frozen
  // sweep over the home surface agrees with the full evaluation.
  const em::JonesMatrix* both[] = {&home, &hop};
  const double full = relay.received_power(kTx, kF0, both).value();
  EXPECT_NE(full, relay.received_power(kTx, kF0, alone).value());
  const PropagationScene::FrozenEval frozen =
      relay.freeze_except(PropagationScene::kHomeSurface, kTx, kF0, both);
  EXPECT_NEAR(relay.received_power_swept(frozen, home).value(), full, kTol);
}

TEST(PropagationSceneLeakage, FrozenSweepWithExternalsMatchesFullEval) {
  // Sweeping the home surface against frozen neighbors must equal the full
  // coherent evaluation at every candidate — the deployment's batching rule.
  const Antenna tx = Antenna::iot_dipole(Angle::degrees(0.0));
  const Antenna rx = Antenna::iot_dipole(Angle::degrees(70.0));
  common::Rng rng{23};
  const Environment env = Environment::laboratory(rng);
  SceneSpec spec;
  spec.leakage.push_back(LeakageSurfaceSpec{0.4, 0.15});
  spec.leakage.push_back(LeakageSurfaceSpec{0.8, 0.1});
  const PropagationScene scene = PropagationScene::from_spec(
      tx, rx, transmissive_geometry(1.0), env, spec);
  const std::vector<em::JonesMatrix> samples =
      response_samples(metasurface::SurfaceMode::kTransmissive);
  const em::JonesMatrix* frozen_view[] = {nullptr, &samples[2], &samples[9]};
  const PropagationScene::FrozenEval frozen = scene.freeze_except(
      PropagationScene::kHomeSurface, kTx, kF0, frozen_view);
  for (const em::JonesMatrix& r : samples) {
    const em::JonesMatrix* full_view[] = {&r, &samples[2], &samples[9]};
    EXPECT_NEAR(scene.received_power_swept(frozen, r).value(),
                scene.received_power(kTx, kF0, full_view).value(), kTol);
  }
}


// ---------------------------------------------------------------------------
// Bulk scene construction + placed city paths + per-cell refreeze.
// ---------------------------------------------------------------------------

TEST(PropagationSceneBulk, FromSpecBuildsEveryLeakageSurfaceAtConstruction) {
  const LinkGeometry g = transmissive_geometry();
  const Environment env = Environment::absorber_chamber();
  const Antenna ant = Antenna::iot_dipole(Angle::degrees(0.0));

  constexpr std::size_t kM = 24;
  SceneSpec spec;
  spec.leakage.resize(kM);
  for (std::size_t i = 0; i < kM; ++i) {
    spec.leakage[i].lateral_offset_m = 0.3 + 0.05 * static_cast<double>(i);
    spec.leakage[i].coupling = 0.1 + 0.01 * static_cast<double>(i);
  }

  // The whole scene is built at construction, in one path-table build:
  // ZERO revision bumps, whatever M is.
  const PropagationScene scene =
      PropagationScene::from_spec(ant, ant, g, env, spec);
  EXPECT_EQ(scene.revision(), 0u);
  ASSERT_EQ(scene.surface_count(), kM + 1);
  // Spec order is id order: leakage surface i is scene surface i + 1, its
  // path after the transmissive home path, farther out as its offset grows.
  ASSERT_EQ(scene.paths().size(), kM + 1);
  for (std::size_t i = 0; i < kM; ++i) {
    const PropagationPath& path = scene.paths()[i + 1];
    EXPECT_EQ(path.kind, PathKind::kLeakage);
    EXPECT_EQ(path.surfaces, (std::vector<std::size_t>{i + 1}));
    EXPECT_EQ(path.coupling_scale, spec.leakage[i].coupling);
    if (i > 0) EXPECT_GT(path.length_m, scene.paths()[i].length_m);
  }

  // An empty spec is the single link.
  const PropagationScene bare =
      PropagationScene::from_spec(ant, ant, g, env, SceneSpec{});
  EXPECT_EQ(bare.surface_count(), 1u);
  EXPECT_EQ(bare.paths().size(), 1u);
}

TEST(PropagationSceneBulk, PlacedPathsCarryExplicitLengthAndCell) {
  const LinkGeometry g = transmissive_geometry(6.0);
  const Environment env = Environment::absorber_chamber();
  const Antenna ant = Antenna::iot_dipole(Angle::degrees(0.0));

  SceneSpec spec;
  PlacedLeakageSpec near;
  near.path_length_m = 7.5;
  near.coupling = 0.12;
  near.cell = 3;
  near.external_id = 17;
  PlacedLeakageSpec far = near;
  far.path_length_m = 40.0;
  far.coupling = 0.01;
  far.cell = 9;
  far.external_id = 41;
  spec.placed = {near, far};
  const PropagationScene scene =
      PropagationScene::from_spec(ant, ant, g, env, spec);
  ASSERT_EQ(scene.surface_count(), 3u);

  // Exactly one path per placed surface, carrying the spec's geometry and
  // the spatial cell the freeze aggregates on.
  int placed_paths = 0;
  for (const PropagationPath& p : scene.paths()) {
    if (p.kind != PathKind::kLeakage) continue;
    ++placed_paths;
    ASSERT_EQ(p.surfaces.size(), 1u);
    const PlacedLeakageSpec& expect =
        p.surfaces[0] == 1 ? near : far;
    EXPECT_DOUBLE_EQ(p.length_m, expect.path_length_m);
    EXPECT_DOUBLE_EQ(p.coupling_scale, expect.coupling);
    EXPECT_EQ(p.cell, expect.cell);
  }
  EXPECT_EQ(placed_paths, 2);

  // A longer, weaker placed path contributes less power on its own.
  const std::vector<em::JonesMatrix> samples =
      response_samples(metasurface::SurfaceMode::kTransmissive);
  std::vector<const em::JonesMatrix*> view{&samples[0], &samples[1],
                                           &samples[1]};
  const PropagationScene::ResponseView rv{view.data(), view.size()};
  double near_mw = 0.0;
  double far_mw = 0.0;
  for (std::size_t i = 0; i < scene.paths().size(); ++i) {
    if (scene.paths()[i].kind != PathKind::kLeakage) continue;
    const double mw = scene.path_power(i, kTx, kF0, rv).value();
    if (scene.paths()[i].surfaces[0] == 1)
      near_mw = mw;
    else
      far_mw = mw;
  }
  EXPECT_GT(near_mw, far_mw);
  EXPECT_GT(far_mw, 0.0);
}

TEST(PropagationSceneBulk, RefreezeCellsMatchesFreshFreeze) {
  const LinkGeometry g = transmissive_geometry(6.0);
  const Environment env = Environment::absorber_chamber();
  const Antenna ant = Antenna::iot_dipole(Angle::degrees(0.0));

  // Nine placed surfaces across three cells, plus the home surface.
  SceneSpec spec;
  for (std::size_t i = 0; i < 9; ++i) {
    PlacedLeakageSpec p;
    p.path_length_m = 8.0 + 3.0 * static_cast<double>(i);
    p.coupling = 0.02 + 0.01 * static_cast<double>(i % 4);
    p.cell = static_cast<std::int32_t>(i / 3);
    p.external_id = 100 + i;
    spec.placed.push_back(p);
  }
  const PropagationScene scene =
      PropagationScene::from_spec(ant, ant, g, env, spec);
  const std::vector<em::JonesMatrix> samples =
      response_samples(metasurface::SurfaceMode::kTransmissive);

  std::vector<const em::JonesMatrix*> before(10, nullptr);
  for (std::size_t i = 0; i < 10; ++i) before[i] = &samples[i];
  // Retune cell 1's three surfaces (scene ids 4..6) to new responses.
  std::vector<const em::JonesMatrix*> after = before;
  for (std::size_t i = 4; i <= 6; ++i) after[i] = &samples[i + 10];

  PropagationScene::FrozenEval frozen = scene.freeze_except(
      PropagationScene::kHomeSurface, kTx, kF0,
      PropagationScene::ResponseView{before.data(), before.size()});
  ASSERT_EQ(frozen.cell_fields.size(), 3u);
  const std::int32_t retuned_cells[] = {1};
  scene.refreeze_cells(
      frozen, retuned_cells,
      PropagationScene::ResponseView{after.data(), after.size()});

  const PropagationScene::FrozenEval fresh = scene.freeze_except(
      PropagationScene::kHomeSurface, kTx, kF0,
      PropagationScene::ResponseView{after.data(), after.size()});
  EXPECT_EQ(std::memcmp(&frozen.fixed_total, &fresh.fixed_total,
                        sizeof(fresh.fixed_total)),
            0);
  for (const em::JonesMatrix& r : samples) {
    EXPECT_DOUBLE_EQ(scene.received_power_swept(frozen, r).value(),
                     scene.received_power_swept(fresh, r).value());
  }

  // Unknown cells are a no-op (the surfaces were pruned from this scene)...
  const std::int32_t unknown_cells[] = {99};
  PropagationScene::FrozenEval untouched = fresh;
  scene.refreeze_cells(
      untouched, unknown_cells,
      PropagationScene::ResponseView{after.data(), after.size()});
  EXPECT_EQ(std::memcmp(&untouched.fixed_total, &fresh.fixed_total,
                        sizeof(fresh.fixed_total)),
            0);

  // ...while a stale freeze (scene mutated) is rejected.
  PropagationScene mutated = scene;
  PropagationScene::FrozenEval stale = mutated.freeze_except(
      PropagationScene::kHomeSurface, kTx, kF0,
      PropagationScene::ResponseView{before.data(), before.size()});
  mutated.set_geometry(g);
  EXPECT_THROW(mutated.refreeze_cells(
                   stale, retuned_cells,
                   PropagationScene::ResponseView{after.data(), after.size()}),
               std::logic_error);
}

}  // namespace
}  // namespace llama::channel
