#include "src/common/math_utils.h"

#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace llama::common {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double min_element(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument{"min_element: empty span"};
  return *std::min_element(xs.begin(), xs.end());
}

double max_element(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument{"max_element: empty span"};
  return *std::max_element(xs.begin(), xs.end());
}

std::vector<double> linspace(double lo, double hi, int n) {
  if (n <= 0) throw std::invalid_argument{"linspace: n must be positive"};
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  if (n == 1) {
    out.push_back(lo);
    return out;
  }
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (int i = 0; i < n; ++i) out.push_back(lo + step * i);
  return out;
}

std::vector<double> stepped_range(double lo, double hi, double step) {
  std::vector<double> out;
  if (step <= 0.0 || hi < lo) return out;
  // Fail fast on range/step combinations that would not fit in memory.
  if (!stepped_range_fits(lo, hi, step))
    throw std::invalid_argument{
        "stepped_range: range/step yields too many points"};
  out.reserve(static_cast<std::size_t>((hi - lo) / step) + 2);
  for (std::size_t i = 0;; ++i) {
    const double v = lo + static_cast<double>(i) * step;
    if (v > hi + 1e-9) break;
    out.push_back(v);
  }
  return out;
}

bool stepped_range_fits(double lo, double hi, double step) {
  // 50M points is far beyond any physical axis and still a safe allocation.
  return (hi - lo) / step < 5e7;
}

double interp1(std::span<const double> xs, std::span<const double> ys,
               double x_q) {
  if (xs.size() != ys.size() || xs.empty())
    throw std::invalid_argument{"interp1: mismatched or empty inputs"};
  if (x_q <= xs.front()) return ys.front();
  if (x_q >= xs.back()) return ys.back();
  // Binary search for the bracketing interval.
  auto it = std::upper_bound(xs.begin(), xs.end(), x_q);
  const auto hi = static_cast<std::size_t>(std::distance(xs.begin(), it));
  const std::size_t lo = hi - 1;
  const double t = (x_q - xs[lo]) / (xs[hi] - xs[lo]);
  return lerp(ys[lo], ys[hi], t);
}

Histogram histogram(std::span<const double> xs, double lo, double hi,
                    int bins) {
  if (bins <= 0) throw std::invalid_argument{"histogram: bins must be > 0"};
  if (hi <= lo) throw std::invalid_argument{"histogram: hi must exceed lo"};
  Histogram h;
  h.bin_centers.resize(static_cast<std::size_t>(bins));
  h.pdf_percent.assign(static_cast<std::size_t>(bins), 0.0);
  const double width = (hi - lo) / bins;
  for (int i = 0; i < bins; ++i)
    h.bin_centers[static_cast<std::size_t>(i)] = lo + (i + 0.5) * width;
  if (xs.empty()) return h;
  for (double x : xs) {
    if (x < lo || x >= hi) continue;
    auto idx = static_cast<std::size_t>((x - lo) / width);
    if (idx >= h.pdf_percent.size()) idx = h.pdf_percent.size() - 1;
    h.pdf_percent[idx] += 1.0;
  }
  const double scale = 100.0 / static_cast<double>(xs.size());
  for (double& p : h.pdf_percent) p *= scale;
  return h;
}

std::vector<double> moving_average(std::span<const double> xs, int w) {
  if (w < 1) throw std::invalid_argument{"moving_average: window must be >=1"};
  std::vector<double> out(xs.size());
  double acc = 0.0;
  std::size_t window = static_cast<std::size_t>(w);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    acc += xs[i];
    if (i >= window) acc -= xs[i - window];
    const std::size_t n = std::min(i + 1, window);
    out[i] = acc / static_cast<double>(n);
  }
  return out;
}

double autocorrelation(std::span<const double> xs, int lag) {
  if (lag < 0 || static_cast<std::size_t>(lag) >= xs.size()) return 0.0;
  const double m = mean(xs);
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double c = xs[i] - m;
    den += c * c;
    if (i + static_cast<std::size_t>(lag) < xs.size())
      num += c * (xs[i + static_cast<std::size_t>(lag)] - m);
  }
  if (den == 0.0) return 0.0;
  return num / den;
}

}  // namespace llama::common
