#include "fleet/demand_model.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace limoncello {

ServiceDemand ComputeServiceDemand(const ServiceSpec& spec,
                                   const PrefetchResponse& response) {
  const PrefetchResponse& r = response;
  ServiceDemand demand;
  demand.spec = &spec;
  for (const PrefetchRegime regime :
       {PrefetchRegime::kHardware, PrefetchRegime::kSoftware,
        PrefetchRegime::kNone}) {
    DemandCoefficients& out =
        demand.by_regime[static_cast<std::size_t>(regime)];
    for (int c = 0; c < kNumCategories; ++c) {
      const std::size_t ci = static_cast<std::size_t>(c);
      const bool tax = c != kNonTaxCategoryIndex;
      double misses = spec.base_mpki * spec.category_mix[ci];
      double hw_covered = 0.0;
      double sw_covered = 0.0;
      if (regime == PrefetchRegime::kHardware) {
        const double coverage =
            tax ? r.hw_coverage_tax : r.hw_coverage_nontax;
        const double covered = misses * coverage;
        misses -= covered;
        if (!tax) misses *= r.hw_pollution_nontax;
        hw_covered += covered;
      } else if (regime == PrefetchRegime::kSoftware && tax) {
        const double covered = misses * r.sw_coverage_tax;
        misses -= covered;
        sw_covered += covered;
      }
      // The per-task loop summed into zeroed fields; 0.0 + misses keeps
      // the one difference that makes (a -0.0 becomes +0.0).
      const double left = 0.0 + misses;
      out.misses[ci] = left;
      out.mpki_eff += left;
      out.traffic_per_kinstr +=
          left +
          hw_covered / (tax ? r.hw_accuracy_tax : r.hw_accuracy_nontax) +
          sw_covered / r.sw_accuracy;
    }
  }
  return demand;
}

void ServiceDemandTable::AddService(const ServiceSpec& spec, int hint,
                                    const PrefetchResponse& response) {
  if (Lookup(&spec, hint) != nullptr) return;
  const std::size_t slot = static_cast<std::size_t>(hint);
  if (slot < kMaxHintSlot && slot >= entries_.size()) {
    entries_.resize(slot + 1);
  }
  if (slot < entries_.size() && entries_[slot].spec == nullptr) {
    entries_[slot] = ComputeServiceDemand(spec, response);
  } else {
    entries_.push_back(ComputeServiceDemand(spec, response));
  }
}

const ServiceDemand* ServiceDemandTable::Lookup(const ServiceSpec* spec,
                                                int hint) const {
  const std::size_t slot = static_cast<std::size_t>(hint);
  if (slot < entries_.size() && entries_[slot].spec == spec) {
    return &entries_[slot];
  }
  for (const ServiceDemand& entry : entries_) {
    if (entry.spec == spec) return &entry;
  }
  return nullptr;
}

const ServiceDemand& ServiceDemandTable::FindSlow(
    const ServiceSpec* spec) const {
  const ServiceDemand* entry = Lookup(spec, -1);
  LIMONCELLO_CHECK(entry != nullptr);
  return *entry;
}

namespace {

// What the evaluated points prove about the bisection's predicate
// P(u) = f(u) > u, by f's monotonicity (see demand_model.h).
struct Verdicts {
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  double true_through = -kInf;  // P(u) for every u <= true_through
  double true_below = -kInf;    // P(u) for every u < true_below
  double false_from = kInf;     // !P(u) for every u >= false_from

  void Learn(double x, double y) {
    if (y > x) {
      true_through = std::max(true_through, x);
      false_from = std::min(false_from, y);
    } else {
      true_below = std::max(true_below, y);
      false_from = std::min(false_from, x);
    }
  }
  bool KnownTrue(double u) const {
    return u <= true_through || u < true_below;
  }
  // False for a NaN, so a degenerate secant step is never evaluated.
  bool Undecided(double u) const {
    return u > true_through && u >= true_below && u < false_from;
  }
  double UndecidedLow() const { return std::max(true_through, true_below); }
};

}  // namespace

OperatingPoint SolveOperatingPoint(const DemandScalars& demand,
                                   const PlatformConfig& platform,
                                   const LatencyLut& lut) {
  const double cores = static_cast<double>(platform.cores);
  const double saturation_bytes = platform.saturation_gbps * 1e9;
  // Memory-bandwidth ceiling: the qualification threshold is a derated
  // operating point, not the physical channel limit — sockets can burst
  // well past it (at terrible latency) before throughput hard-caps. The
  // ceiling equals the latency LUT's domain bound by construction.
  const double max_ratio = LatencyLut::kMaxUtilization;

  OperatingPoint point;
  // f: served load and traffic at the assumed utilization; returns the
  // utilization that load would actually generate.
  const auto evaluate = [&](double u_assumed) {
    ++point.evaluations;
    const double penalty =
        lut.At(u_assumed) * platform.freq_ghz / platform.mlp;
    point.required_cores = demand.cores_base + demand.cores_miss * penalty;
    point.scale =
        point.required_cores > cores ? cores / point.required_cores : 1.0;
    point.total_bytes = demand.bytes_at_full * point.scale;
    if (point.total_bytes > saturation_bytes * max_ratio) {
      point.scale *= saturation_bytes * max_ratio / point.total_bytes;
      point.total_bytes = saturation_bytes * max_ratio;
    }
    return point.total_bytes / saturation_bytes;
  };

  double lo = 0.0;
  double hi = max_ratio;
  const double f0 = evaluate(lo);
  if (f0 <= lo) {
    hi = lo;  // idle machine: fixed point at zero
  } else {
    Verdicts known;
    known.Learn(lo, f0);
    // Seed the verdicts. f(f0) <= f0, so u = f0 lies on the false side;
    // when the curve is flat there (the CPU is not saturated), f(f0) ==
    // f0 and the two points already decide every bisection step.
    double a = lo;  // P(a): f(a) - a = ha > 0
    double ha = f0;
    double b = f0;  // !P(b): f(b) - b = hb <= 0
    const double fb = evaluate(b);
    known.Learn(b, fb);
    double hb = fb - b;
    // Then Illinois regula falsi on h(u) = f(u) - u until the undecided
    // span is narrower than the bisection's final interval (one leaf),
    // so at most a step or two of the bisection below must evaluate.
    const double leaf = max_ratio / static_cast<double>(1 << 20);
    int retained = 0;  // +1: a kept last step, -1: b kept
    for (int step = 0; step < 16; ++step) {
      const double undecided_lo = known.UndecidedLow();
      if (known.false_from - undecided_lo < leaf) break;
      double u = b - hb * (b - a) / (hb - ha);
      if (!known.Undecided(u)) u = 0.5 * (undecided_lo + known.false_from);
      const double y = evaluate(u);
      known.Learn(u, y);
      if (y > u) {
        a = u;
        ha = y - u;
        if (retained == -1) hb *= 0.5;
        retained = -1;
      } else {
        b = u;
        hb = y - u;
        if (retained == 1) ha *= 0.5;
        retained = 1;
      }
    }
    // The bisection itself: the same 20 midpoints and decisions as
    // always, evaluating f only where no evaluated point decides.
    for (int iter = 0; iter < 20; ++iter) {
      const double mid = 0.5 * (lo + hi);
      bool above = known.KnownTrue(mid);
      if (known.Undecided(mid)) {
        const double y = evaluate(mid);
        known.Learn(mid, y);
        above = y > mid;
      }
      if (above) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
  }
  point.utilization = hi;
  (void)evaluate(hi);  // leave scale/total_bytes at the solution
  return point;
}

}  // namespace limoncello
