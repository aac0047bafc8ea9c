// Link physics of the one-surface scene (the paper's Fig. 14 testbed):
// Friis, polarization mismatch, power and distance scaling, what a surface
// recovers or costs, the reflective bounce, the interference floor and
// multipath.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/channel/propagation_scene.h"
#include "src/metasurface/metasurface.h"

namespace llama::channel {
namespace {

using common::Angle;
using common::Frequency;
using common::PowerDbm;
using common::Voltage;

const Frequency kF0 = Frequency::ghz(2.44);

LinkGeometry transmissive_geometry(double dist_m = 0.42) {
  LinkGeometry g;
  g.mode = metasurface::SurfaceMode::kTransmissive;
  g.tx_rx_distance_m = dist_m;
  g.tx_surface_distance_m = dist_m / 2.0;
  return g;
}

PropagationScene transmissive_link(double rx_deg, double dist_m = 0.42) {
  return PropagationScene::single_link(
      Antenna::directional_10dbi(Angle::degrees(0.0)),
      Antenna::directional_10dbi(Angle::degrees(rx_deg)),
      transmissive_geometry(dist_m), Environment::absorber_chamber());
}

double without_surface(const PropagationScene& link,
                       PowerDbm tx_power = PowerDbm{0.0}) {
  return link.received_power_without_surface(tx_power, kF0).value();
}

/// Received power with `surface` deployed at its current bias.
double with_surface(const PropagationScene& link,
                    const metasurface::Metasurface& surface) {
  return link
      .received_power_with_response(
          PowerDbm{0.0}, kF0, surface.response(kF0, link.geometry().mode))
      .value();
}

TEST(LinkGeometry, TransmissiveDistances) {
  LinkGeometry g;
  g.mode = metasurface::SurfaceMode::kTransmissive;
  g.tx_rx_distance_m = 0.42;
  g.tx_surface_distance_m = 0.20;
  EXPECT_NEAR(g.rx_surface_distance_m(), 0.22, 1e-12);
  EXPECT_NEAR(g.surface_path_m(), 0.42, 1e-12);
}

TEST(LinkGeometry, ReflectivePathUsesBisector) {
  LinkGeometry g;
  g.mode = metasurface::SurfaceMode::kReflective;
  g.tx_rx_distance_m = 0.70;
  g.tx_surface_distance_m = 0.42;
  const double leg = std::sqrt(0.42 * 0.42 + 0.35 * 0.35);
  EXPECT_NEAR(g.rx_surface_distance_m(), leg, 1e-12);
  EXPECT_NEAR(g.surface_path_m(), 2.0 * leg, 1e-12);
}

TEST(SingleLinkScene, MatchedLinkNearFriisExpectation) {
  const double got = without_surface(transmissive_link(0.0));
  // 0 dBm + 10 + 10 dBi - Friis(0.42 m, 2.44 GHz) ~= -12.7 dBm.
  const double expected = 0.0 + 20.0 - friis_loss_db(kF0, 0.42).value();
  EXPECT_NEAR(got, expected, 0.5);
}

TEST(SingleLinkScene, MismatchCostsTensOfDb) {
  const double pm = without_surface(transmissive_link(0.0));
  const double pc = without_surface(transmissive_link(90.0));
  EXPECT_GT(pm - pc, 10.0);
  EXPECT_LT(pm - pc, 30.0);
}

TEST(SingleLinkScene, PowerScalesWithTxPower) {
  const PropagationScene link = transmissive_link(0.0);
  EXPECT_NEAR(without_surface(link, PowerDbm{10.0}) - without_surface(link),
              10.0, 1e-6);
}

TEST(SingleLinkScene, PowerFallsWithDistance) {
  const double near_d = without_surface(transmissive_link(0.0, 0.24));
  const double far_d = without_surface(transmissive_link(0.0, 0.60));
  EXPECT_GT(near_d, far_d + 6.0);
}

TEST(SingleLinkScene, OptimizedSurfaceRecoversMismatchedLink) {
  const PropagationScene link = transmissive_link(90.0);
  metasurface::Metasurface surface =
      metasurface::Metasurface::llama_prototype();
  const double baseline = without_surface(link);
  // Sweep the grid for the best bias (what the controller would find).
  double best = -1e9;
  for (double vx = 0.0; vx <= 30.0; vx += 3.0)
    for (double vy = 0.0; vy <= 30.0; vy += 3.0) {
      surface.set_bias(Voltage{vx}, Voltage{vy});
      best = std::max(best, with_surface(link, surface));
    }
  // Paper Fig. 16: gains in the 10-15 dB class.
  EXPECT_GT(best - baseline, 8.0);
  EXPECT_LT(best - baseline, 20.0);
}

TEST(SingleLinkScene, SurfaceInsertionLossOnMatchedLink) {
  // On an already-matched link the surface can only hurt (its insertion
  // loss exceeds any rotation benefit).
  const PropagationScene link = transmissive_link(0.0);
  metasurface::Metasurface surface =
      metasurface::Metasurface::llama_prototype();
  surface.set_bias(Voltage{10.0}, Voltage{10.0});
  const double with = with_surface(link, surface);
  const double without = without_surface(link);
  EXPECT_LT(with, without);
  EXPECT_GT(with, without - 12.0);
}

TEST(SingleLinkScene, ReflectiveSurfaceAddsPath) {
  LinkGeometry g;
  g.mode = metasurface::SurfaceMode::kReflective;
  g.tx_rx_distance_m = 0.70;
  g.tx_surface_distance_m = 0.42;
  const PropagationScene link = PropagationScene::single_link(
      Antenna::directional_10dbi(Angle::degrees(0.0)),
      Antenna::directional_10dbi(Angle::degrees(90.0)), g,
      Environment::absorber_chamber());
  metasurface::Metasurface surface =
      metasurface::Metasurface::llama_prototype();
  surface.set_bias(Voltage{5.0}, Voltage{25.0});
  EXPECT_GT(with_surface(link, surface), without_surface(link) + 5.0);
}

TEST(SingleLinkScene, InterferenceFloorBoundsMinimumPower) {
  common::Rng rng{3};
  const PropagationScene link = PropagationScene::single_link(
      Antenna::omni_6dbi(Angle::degrees(0.0)),
      Antenna::omni_6dbi(Angle::degrees(90.0)), transmissive_geometry(),
      Environment::laboratory(rng));
  // At absurdly low transmit power the measurement bottoms out at the
  // laboratory interference floor, not at -infinity.
  EXPECT_GT(without_surface(link, PowerDbm{-80.0}), -75.0);
}

TEST(SingleLinkScene, MultipathRaisesCrossPolarizedBaseline) {
  common::Rng rng{17};
  const PropagationScene clean = PropagationScene::single_link(
      Antenna::omni_6dbi(Angle::degrees(0.0)),
      Antenna::omni_6dbi(Angle::degrees(90.0)), transmissive_geometry(),
      Environment::absorber_chamber());
  const PropagationScene lab = PropagationScene::single_link(
      Antenna::omni_6dbi(Angle::degrees(0.0)),
      Antenna::omni_6dbi(Angle::degrees(90.0)), transmissive_geometry(),
      Environment::laboratory(rng));
  // Scattered rays arrive with scrambled polarization, so the mismatched
  // baseline is stronger in the lab (paper Section 5.1.2: "the multipath
  // reflections ... cause the received signal to be stronger").
  EXPECT_GT(without_surface(lab), without_surface(clean));
}

TEST(SingleLinkScene, DirectionalAntennasSuppressMultipath) {
  common::Rng rng{17};
  const Environment lab = Environment::laboratory(rng);
  const auto link = [](const Antenna& tx, const Antenna& rx,
                       const Environment& env) {
    return PropagationScene::single_link(tx, rx, transmissive_geometry(),
                                         env);
  };
  const Antenna omni_tx = Antenna::omni_6dbi(Angle::degrees(0.0));
  const Antenna omni_rx = Antenna::omni_6dbi(Angle::degrees(90.0));
  const Antenna dir_tx = Antenna::directional_10dbi(Angle::degrees(0.0));
  const Antenna dir_rx = Antenna::directional_10dbi(Angle::degrees(90.0));
  // Normalize out boresight gain difference (20 vs 12 dBi pair) and compare
  // the multipath contribution: the directional pair should sit closer to
  // its clean-room cross-pol floor.
  const double omni_lift =
      without_surface(link(omni_tx, omni_rx, lab)) -
      without_surface(
          link(omni_tx, omni_rx, Environment::absorber_chamber()));
  const double dir_lift =
      without_surface(link(dir_tx, dir_rx, lab)) -
      without_surface(link(dir_tx, dir_rx, Environment::absorber_chamber()));
  EXPECT_GT(omni_lift, dir_lift);
}

}  // namespace
}  // namespace llama::channel
