#include "src/radio/transceiver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/llama_system.h"

#include "tests/radio/receiver_pins.h"

namespace llama::radio {
namespace {

using common::PowerDbm;
using common::Rng;

Receiver make_rx(std::uint64_t seed = 1) {
  return Receiver{ReceiverConfig{}, Rng{seed}};
}

TEST(Receiver, DefaultsMatchPaperSetup) {
  const ReceiverConfig cfg;
  EXPECT_DOUBLE_EQ(cfg.sample_rate_hz, 1e6);   // paper: 1 MHz sampling
  EXPECT_DOUBLE_EQ(cfg.tone_offset_hz, 500e3);  // paper: 500 kHz tone
}

TEST(Receiver, NoiseFloorAroundMinus110) {
  EXPECT_NEAR(make_rx().noise_floor_dbm().value(), -110.0, 1.0);
}

TEST(Receiver, CaptureProducesRequestedSamples) {
  Receiver rx = make_rx();
  const IqCapture iq = rx.capture(PowerDbm{-50.0}, 1000);
  EXPECT_EQ(iq.samples.size(), 1000u);
  EXPECT_NEAR(iq.duration_s(), 1e-3, 1e-12);
}

TEST(Receiver, PowerEstimateTracksStrongSignal) {
  Receiver rx = make_rx();
  for (double dbm : {-30.0, -50.0, -70.0}) {
    const IqCapture iq = rx.capture(PowerDbm{dbm}, 20000);
    EXPECT_NEAR(Receiver::estimate_power(iq).value(), dbm, 0.5)
        << "dbm=" << dbm;
  }
}

TEST(Receiver, WeakSignalBottomsAtNoiseFloor) {
  Receiver rx = make_rx();
  const IqCapture iq = rx.capture(PowerDbm{-150.0}, 20000);
  EXPECT_NEAR(Receiver::estimate_power(iq).value(),
              rx.noise_floor_dbm().value(), 1.0);
}

TEST(Receiver, NearFloorSignalAddsOnTopOfNoise) {
  Receiver rx = make_rx();
  const double floor = rx.noise_floor_dbm().value();
  const IqCapture iq = rx.capture(PowerDbm{floor}, 50000);
  // Signal at the noise floor doubles total power: +3 dB over the floor.
  EXPECT_NEAR(Receiver::estimate_power(iq).value(), floor + 3.0, 0.7);
}

TEST(Receiver, EstimateOfEmptyCaptureIsFloor) {
  EXPECT_LE(Receiver::estimate_power(IqCapture{}).value(), -120.0);
}

TEST(Receiver, MeasureMatchesCaptureEstimate) {
  Receiver rx = make_rx();
  const double p = rx.measure(PowerDbm{-45.0}, 0.02).value();
  EXPECT_NEAR(p, -45.0, 0.5);
}

TEST(Receiver, DeterministicPerSeed) {
  Receiver a = make_rx(123);
  Receiver b = make_rx(123);
  EXPECT_DOUBLE_EQ(a.measure(PowerDbm{-60.0}, 0.01).value(),
                   b.measure(PowerDbm{-60.0}, 0.01).value());
}

TEST(Receiver, ToneFrequencyIsCorrect) {
  // Correlate the noise-free-ish capture against the expected tone: a
  // strong signal at the configured offset should dominate.
  Receiver rx = make_rx();
  const IqCapture iq = rx.capture(PowerDbm{-20.0}, 4096);
  std::complex<double> acc{0.0, 0.0};
  const double w = 2.0 * 3.14159265358979 * 500e3;
  for (std::size_t i = 0; i < iq.samples.size(); ++i) {
    const double t = static_cast<double>(i) / iq.sample_rate_hz;
    acc += iq.samples[i] * std::exp(std::complex<double>{0.0, -w * t});
  }
  const double coherent_mw =
      std::norm(acc / static_cast<double>(iq.samples.size()));
  EXPECT_NEAR(10.0 * std::log10(coherent_mw), -20.0, 0.5);
}

TEST(Receiver, WindowCapKeepsMeasureFast) {
  Receiver rx = make_rx();
  // A 30 s window (the paper's baseline averaging) must not synthesize 30M
  // samples; the estimate is still accurate.
  const double p = rx.measure(PowerDbm{-40.0}, 30.0).value();
  EXPECT_NEAR(p, -40.0, 0.5);
}

TEST(Receiver, NonFiniteSignalPowerIsRejectedNotMeasured) {
  // Input contract: -inf means "no signal" (pure noise), but NaN and +inf
  // are upstream channel-model bugs and must fail loudly instead of
  // flowing into outage accounting as non-finite power.
  Receiver rx = make_rx();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)rx.capture(PowerDbm{nan}, 16), std::invalid_argument);
  EXPECT_THROW((void)rx.capture(PowerDbm{inf}, 16), std::invalid_argument);
  EXPECT_THROW((void)rx.measure(PowerDbm{nan}, 0.02), std::invalid_argument);
  EXPECT_THROW((void)rx.measure(PowerDbm{inf}, 0.02), std::invalid_argument);
  EXPECT_THROW((void)rx.expected_measure(PowerDbm{nan}),
               std::invalid_argument);
  EXPECT_THROW((void)rx.expected_measure(PowerDbm{inf}),
               std::invalid_argument);
}

TEST(Receiver, MinusInfinitySignalMeansPureNoise) {
  Receiver rx = make_rx();
  const double inf = std::numeric_limits<double>::infinity();
  const double floor = rx.noise_floor_dbm().value();
  EXPECT_NEAR(rx.measure(PowerDbm{-inf}, 0.05).value(), floor, 1.0);
  EXPECT_NEAR(rx.expected_measure(PowerDbm{-inf}).value(), floor, 1e-9);
}

TEST(ReceiverConfig, ReceiverRejectsAnInvalidConfigNamingTheField) {
  // Each rule once made expected_measure() return NaN (or throw from deep
  // inside a sweep); the Receiver, and so every system that builds one,
  // now rejects it at construction.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Rule {
    const char* field;
    std::function<void(ReceiverConfig&)> break_config;
  };
  const std::vector<Rule> rules = {
      {"noise_bandwidth",
       [](ReceiverConfig& c) { c.noise_bandwidth = common::Frequency{-5e5}; }},
      {"noise_bandwidth",
       [](ReceiverConfig& c) { c.noise_bandwidth = common::Frequency{0.0}; }},
      {"noise_bandwidth",
       [&](ReceiverConfig& c) { c.noise_bandwidth = common::Frequency{nan}; }},
      {"noise_bandwidth",
       [&](ReceiverConfig& c) { c.noise_bandwidth = common::Frequency{inf}; }},
      {"sample_rate_hz", [](ReceiverConfig& c) { c.sample_rate_hz = 0.0; }},
      {"sample_rate_hz", [](ReceiverConfig& c) { c.sample_rate_hz = -1e6; }},
      {"sample_rate_hz", [&](ReceiverConfig& c) { c.sample_rate_hz = nan; }},
      {"sample_rate_hz", [&](ReceiverConfig& c) { c.sample_rate_hz = inf; }},
      {"noise_figure",
       [&](ReceiverConfig& c) { c.noise_figure = common::GainDb{nan}; }},
      {"noise_figure",
       [&](ReceiverConfig& c) { c.noise_figure = common::GainDb{-inf}; }},
      {"tone_offset_hz", [&](ReceiverConfig& c) { c.tone_offset_hz = nan; }},
      {"tone_offset_hz", [&](ReceiverConfig& c) { c.tone_offset_hz = inf; }},
  };
  const auto rejection = [](const std::function<void()>& build) {
    try {
      build();
    } catch (const std::invalid_argument& e) {
      return std::string{e.what()};
    }
    return std::string{};
  };
  EXPECT_NO_THROW(ReceiverConfig{}.validate());
  for (const Rule& rule : rules) {
    ReceiverConfig bad;
    rule.break_config(bad);
    const std::string what = rejection([&] { Receiver{bad, Rng{1}}; });
    EXPECT_NE(what.find(rule.field), std::string::npos)
        << "a bad " << rule.field << ": '" << what << "'";
    EXPECT_EQ(rejection([&] { bad.validate(); }), what) << rule.field;
    core::SystemConfig system;
    system.receiver = bad;
    EXPECT_EQ(rejection([&] { core::LlamaSystem{system}; }), what)
        << rule.field;
  }
}

TEST(ReceiverPins, ExpectedMeasureMatchesPinnedFloors) {
  ReceiverConfig other;
  other.noise_figure = common::GainDb{4.5};
  other.noise_bandwidth = common::Frequency::mhz(1.25);
  const ReceiverConfig configs[2] = {ReceiverConfig{}, other};
  for (std::size_t c = 0; c < 2; ++c) {
    const Receiver rx{configs[c], Rng{0}};
    for (std::size_t k = 0; k < 5; ++k)
      EXPECT_NEAR(rx.expected_measure(PowerDbm{pins::kSignalDbm[k]}).value(),
                  pins::kExpectedMeasureDbm[c][k], 1e-12)
          << "config " << c << " signal " << pins::kSignalDbm[k];
  }
}

TEST(ReceiverPins, CaptureMatchesPinnedSamples) {
  Receiver rx = make_rx(7);
  const IqCapture iq = rx.capture(PowerDbm{-70.0}, 3);
  ASSERT_EQ(iq.samples.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(iq.samples[i].real(), pins::kCaptureSeed7[2 * i], 1e-12);
    EXPECT_NEAR(iq.samples[i].imag(), pins::kCaptureSeed7[2 * i + 1], 1e-12);
  }
}

}  // namespace
}  // namespace llama::radio
