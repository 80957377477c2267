// The bandwidth-utilization → load-to-use-latency curve.
//
// This is the paper's central physical phenomenon (Fig. 1): load-to-use
// latency of a DRAM request roughly doubles as bandwidth utilization
// approaches saturation, because requests queue in the memory controller.
// We model it as unloaded latency plus an M/M/1-flavoured queuing term:
//
//   L(u) = L0 + Lq * u^k / (1 - min(u, u_max))
//
// Utilization u counts *all* traffic — demand plus prefetch — which is why
// hardware prefetchers sit higher on the curve at the same demand level.
// The same curve is shared by the detailed socket simulator and the
// fleet-scale analytic machine model, so both substrates agree by
// construction.
#ifndef LIMONCELLO_SIM_MEMORY_LATENCY_CURVE_H_
#define LIMONCELLO_SIM_MEMORY_LATENCY_CURVE_H_

#include <array>

namespace limoncello {

struct LatencyCurveConfig {
  double unloaded_ns = 90.0;   // idle DRAM load-to-use latency
  double queue_coeff_ns = 14.0;
  double exponent = 2.2;
  double max_utilization = 0.96;  // queuing clamp (curve stays finite)
};

// Latency (ns) at the given utilization in [0, +inf); utilization above 1
// is clamped by max_utilization inside the queuing term.
double LatencyAtUtilization(const LatencyCurveConfig& config,
                            double utilization);

// Tabulated form of the curve for hot loops: the fleet model's operating-
// point solve evaluates the curve a few times per machine-tick, and the
// exact form pays a std::pow each call. The table holds the exact curve
// at 2048 evenly spaced points over [0, kMaxUtilization] and interpolates
// linearly in between — a pure function of the config, shared per fleet,
// and fully deterministic (same table, same inputs, same bits at any
// thread count). The ~0.03 % interpolation error is far below the model's
// own fidelity.
//
// Monotonicity in floating point is load-bearing: At is non-decreasing in
// `utilization`, and the fleet's SolveOperatingPoint (fleet/
// demand_model.h) skips bisection steps on the strength of it. It holds
// because the table is non-decreasing, `utilization * inv_step_` and
// `lo + frac * (hi - lo)` are monotone under round-to-nearest, and
// adjacent entries differ by less than 2x, so `hi - lo` is exact and the
// value just below a cell boundary never exceeds the entry at it
// (LatencyLutTest pins this).
class LatencyLut {
 public:
  // Table intervals and domain. The domain upper bound matches the fleet
  // model's over-saturation ceiling (MachineModel caps bandwidth at
  // 1.35x the qualification threshold); queries clamp to the domain.
  static constexpr int kPoints = 2048;
  static constexpr double kMaxUtilization = 1.35;

  explicit LatencyLut(const LatencyCurveConfig& config);

  double At(double utilization) const {
    double x = utilization * inv_step_;
    if (x <= 0.0) return values_[0];
    if (x >= static_cast<double>(kPoints)) {
      return values_[static_cast<std::size_t>(kPoints)];
    }
    const int i = static_cast<int>(x);
    const double frac = x - static_cast<double>(i);
    const double lo = values_[static_cast<std::size_t>(i)];
    const double hi = values_[static_cast<std::size_t>(i) + 1];
    return lo + frac * (hi - lo);
  }

 private:
  std::array<double, kPoints + 1> values_{};
  double inv_step_ = 0.0;
};

}  // namespace limoncello

#endif  // LIMONCELLO_SIM_MEMORY_LATENCY_CURVE_H_
