#include "src/radio/transceiver.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "src/common/constants.h"
#include "src/channel/capacity.h"

namespace llama::radio {

void ReceiverConfig::validate() const {
  const auto require = [](bool ok, const char* rule) {
    if (!ok)
      throw std::invalid_argument{std::string{"ReceiverConfig: "} + rule};
  };
  require(std::isfinite(sample_rate_hz) && sample_rate_hz > 0.0,
          "sample_rate_hz must be finite and > 0");
  require(std::isfinite(tone_offset_hz), "tone_offset_hz must be finite");
  require(std::isfinite(noise_figure.value()),
          "noise_figure must be finite");
  require(std::isfinite(noise_bandwidth.in_hz()) &&
              noise_bandwidth.in_hz() > 0.0,
          "noise_bandwidth must be finite and > 0");
}

Receiver::Receiver(ReceiverConfig config, common::Rng rng)
    : config_(config), rng_(rng) {
  config_.validate();
  noise_mw_ = noise_floor_dbm().to_mw().value();
}

common::PowerDbm Receiver::noise_floor_dbm() const {
  return channel::noise_floor(config_.noise_bandwidth, config_.noise_figure);
}

namespace {

/// The class input contract: finite dBm or -inf (zero signal). NaN and +inf
/// would otherwise propagate through the mW conversion into every consumer
/// of the measurement (TrackReport outage accounting included).
void require_real_signal(common::PowerDbm signal_power, const char* who) {
  const double v = signal_power.value();
  if (std::isnan(v) || (std::isinf(v) && v > 0.0))
    throw std::invalid_argument{std::string{who} +
                                ": signal power must be finite or -inf"};
}

}  // namespace

IqCapture Receiver::capture(common::PowerDbm signal_power, int n,
                            double start_time_s) {
  require_real_signal(signal_power, "Receiver::capture");
  IqCapture iq;
  iq.sample_rate_hz = config_.sample_rate_hz;
  iq.start_time_s = start_time_s;
  iq.samples.reserve(static_cast<std::size_t>(n));
  // Tone amplitude such that mean |x|^2 equals the signal power in mW.
  const double p_mw = signal_power.to_mw().value();
  const double amp = std::sqrt(p_mw);
  // Complex AWGN with total power equal to the noise floor: each quadrature
  // carries half.
  const double sigma = std::sqrt(noise_mw_ / 2.0);
  const double w = 2.0 * common::kPi * config_.tone_offset_hz;
  const double dt = 1.0 / config_.sample_rate_hz;
  for (int i = 0; i < n; ++i) {
    const double t = start_time_s + i * dt;
    const std::complex<double> tone =
        amp * std::exp(std::complex<double>{0.0, w * t});
    const std::complex<double> noise{rng_.gaussian(0.0, sigma),
                                     rng_.gaussian(0.0, sigma)};
    iq.samples.push_back(tone + noise);
  }
  return iq;
}

common::PowerDbm Receiver::estimate_power(const IqCapture& iq) {
  if (iq.samples.empty()) return common::PowerDbm{-120.0};
  double acc = 0.0;
  for (const auto& s : iq.samples) acc += std::norm(s);
  const double p_mw = acc / static_cast<double>(iq.samples.size());
  return common::PowerMw{std::max(p_mw, 1e-15)}.to_dbm();
}

common::PowerDbm Receiver::expected_measure(
    common::PowerDbm signal_power) const {
  require_real_signal(signal_power, "Receiver::expected_measure");
  const double p_mw = signal_power.to_mw().value();
  return common::PowerMw{std::max(p_mw + noise_mw_, 1e-15)}.to_dbm();
}

common::PowerDbm Receiver::measure(common::PowerDbm signal_power,
                                   double window_s, double start_time_s) {
  require_real_signal(signal_power, "Receiver::measure");
  // Cap the synthesized block: beyond ~100k samples the estimator variance
  // is negligible, so longer windows only waste cycles.
  const int n = static_cast<int>(
      std::min(window_s * config_.sample_rate_hz, 100e3));
  return estimate_power(capture(signal_power, std::max(n, 16),
                                start_time_s));
}

}  // namespace llama::radio
