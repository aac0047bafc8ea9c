// Small numeric helpers shared across modules.
#pragma once

#include <algorithm>
#include <complex>
#include <span>
#include <vector>

namespace llama::common {

using Complex = std::complex<double>;

/// Clamps v into [lo, hi].
[[nodiscard]] constexpr double clamp(double v, double lo, double hi) {
  return std::clamp(v, lo, hi);
}

/// Linear interpolation: a at t=0, b at t=1 (t may lie outside [0,1]).
[[nodiscard]] constexpr double lerp(double a, double b, double t) {
  return a + (b - a) * t;
}

/// True when |a - b| <= tol.
[[nodiscard]] constexpr bool near(double a, double b, double tol = 1e-9) {
  const double d = a - b;
  return (d < 0 ? -d : d) <= tol;
}

/// Arithmetic mean of a sample set; 0 for an empty span.
[[nodiscard]] double mean(std::span<const double> xs);

/// Unbiased sample variance; 0 for fewer than two samples.
[[nodiscard]] double variance(std::span<const double> xs);

/// Sample standard deviation.
[[nodiscard]] double stddev(std::span<const double> xs);

/// Minimum / maximum element (requires non-empty span).
[[nodiscard]] double min_element(std::span<const double> xs);
[[nodiscard]] double max_element(std::span<const double> xs);

/// Linearly spaced vector of n points from lo to hi inclusive (n >= 2),
/// or {lo} when n == 1.
[[nodiscard]] std::vector<double> linspace(double lo, double hi, int n);

/// Fixed-step axis {lo, lo + step, ...} up to hi (inclusive, with a 1e-9
/// absolute tolerance at the upper edge). Every point is generated as
/// lo + i * step — never by repeated accumulation, which drifts by an ulp
/// per addition and can shift grid points or add/drop the endpoint.
/// Returns an empty vector when step <= 0 or hi < lo; throws
/// std::invalid_argument unless stepped_range_fits(lo, hi, step).
[[nodiscard]] std::vector<double> stepped_range(double lo, double hi,
                                                double step);

/// True when (hi - lo) / step < 5e7, the most steps stepped_range accepts;
/// a NaN count does not fit. Option validators use it to reject an absurd
/// step by name before any range is built.
[[nodiscard]] bool stepped_range_fits(double lo, double hi, double step);

/// Piecewise-linear interpolation of y(x) at query point x_q.
/// xs must be sorted ascending; values outside the range are clamped to the
/// boundary values (flat extrapolation).
[[nodiscard]] double interp1(std::span<const double> xs,
                             std::span<const double> ys, double x_q);

/// Histogram with equal-width bins over [lo, hi]; returns per-bin
/// probabilities (in percent) matching the PDF plots in the paper (Fig. 2).
struct Histogram {
  std::vector<double> bin_centers;
  std::vector<double> pdf_percent;
};
[[nodiscard]] Histogram histogram(std::span<const double> xs, double lo,
                                  double hi, int bins);

/// Simple moving average with window w (w >= 1); output has same length.
[[nodiscard]] std::vector<double> moving_average(std::span<const double> xs,
                                                 int w);

/// Autocorrelation at integer lag (biased estimator, normalized by r[0]).
[[nodiscard]] double autocorrelation(std::span<const double> xs, int lag);

}  // namespace llama::common
