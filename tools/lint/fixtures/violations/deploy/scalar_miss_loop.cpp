// Seeded violations for kernel-purity in the deploy dir: a response engine
// that computes its cache misses one cell at a time on the scalar planned
// path instead of through the SoA kernels. `.response(` is the engine's own
// API and stays legal here (see the last function).
#include <cstddef>
#include <utility>
#include <vector>

namespace fixture {

struct FakeStack {
  double transmission(const int& plan, double vx, double vy) const;
  double reflection(const int& plan, double vx, double vy) const;
};

struct FakeEngine {
  double response(double vx, double vy);
};

inline void scalar_misses(const FakeStack& stack, const int* plan,
                          const std::vector<std::pair<double, double>>& misses,
                          std::vector<double>& out) {
  for (const auto& [vx, vy] : misses) {
    out.push_back(stack.transmission(*plan, vx, vy));  // expect-lint: kernel-purity
    out.push_back(stack.reflection(*plan, vx, vy));    // expect-lint: kernel-purity
  }
}

inline double scalar_point(const FakeStack* stack, const int& plan, double v) {
  double acc = stack->transmission(plan, v, v);  // expect-lint: kernel-purity
  acc += planned_response(2.44e9, v, v);         // expect-lint: kernel-purity
  acc += jones_transmission(2.44e9, v, v);       // expect-lint: kernel-purity
  return acc;
}

inline double engine_caller(FakeEngine& engine, double v) {
  return engine.response(v, v);
}

}  // namespace fixture
