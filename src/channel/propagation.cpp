#include "src/channel/propagation.h"

#include <cmath>

#include "src/common/constants.h"

namespace llama::channel {

double friis_amplitude(common::Frequency f, double distance_m) {
  const double lambda = common::wavelength(f.in_hz());
  return lambda / (4.0 * common::kPi * std::max(distance_m, 1e-3));
}

common::GainDb friis_loss_db(common::Frequency f, double distance_m) {
  const double a = friis_amplitude(f, distance_m);
  return common::GainDb{-20.0 * std::log10(a)};
}

double friis_range_extension(common::GainDb gain) {
  return std::pow(10.0, gain.value() / 20.0);
}

em::Complex propagation_factor(common::Frequency f, double distance_m) {
  const double k = 2.0 * common::kPi * f.in_hz() / common::kSpeedOfLight;
  return friis_amplitude(f, distance_m) *
         std::exp(em::Complex{0.0, -k * distance_m});
}

Environment Environment::absorber_chamber() { return Environment{}; }

Environment Environment::with_interference(common::PowerDbm floor) {
  Environment env;
  env.interference_floor_ = floor;
  return env;
}

Environment Environment::laboratory(common::Rng& rng, int ray_count,
                                    double mean_ray_amplitude) {
  Environment env;
  env.interference_floor_ = common::PowerDbm{-60.0};
  env.interference_burst_std_db_ = 3.0;
  env.rays_.reserve(static_cast<std::size_t>(ray_count));
  for (int i = 0; i < ray_count; ++i) {
    MultipathRay ray;
    // Rayleigh-distributed amplitudes around the requested mean; the
    // Rayleigh mean is sigma * sqrt(pi/2).
    const double sigma =
        mean_ray_amplitude / std::sqrt(common::kPi / 2.0);
    ray.amplitude_scale = rng.rayleigh(sigma);
    ray.phase_rad = rng.uniform(0.0, 2.0 * common::kPi);
    // Reflections scramble polarization; rotations concentrate near 0 but
    // can be large.
    ray.polarization_rotation =
        common::Angle::degrees(rng.gaussian(0.0, 40.0));
    env.rays_.push_back(ray);
  }
  return env;
}

std::vector<RayTerm> ray_terms(const Environment& env,
                               const em::JonesVector& tx_state) {
  std::vector<RayTerm> terms;
  terms.reserve(env.rays().size());
  for (const MultipathRay& ray : env.rays())
    terms.push_back(RayTerm{
        ray.amplitude_scale, std::exp(em::Complex{0.0, ray.phase_rad}),
        em::JonesMatrix::rotation(ray.polarization_rotation) * tx_state});
  return terms;
}

em::JonesVector combine_multipath(const em::JonesVector& los_at_rx,
                                  std::span<const RayTerm> rays,
                                  double friis_amp) {
  em::JonesVector total = los_at_rx;
  for (const RayTerm& ray : rays) {
    const em::Complex coeff = friis_amp * ray.amplitude_scale * ray.phase;
    total = total + coeff * ray.rotated_state;
  }
  return total;
}

}  // namespace llama::channel
