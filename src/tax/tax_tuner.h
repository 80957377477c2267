// Soft-Limoncello autotuner: per kernel x size-class prefetch parameter
// search over the data-center-tax suite.
//
// The paper tunes one (distance, degree) compromise per category from the
// Fig. 15 sweeps. This tuner generalizes that methodology: for every tax
// kernel and call-size class it coordinate-descends over distance (at a
// pivot degree), then degree, then locality hint, measuring each candidate
// against the self-timer, and keeps the best — falling back to
// prefetch-disabled when nothing clears the hysteresis margin. Two regimes
// are measured:
//
//   kHwOn           warm, repeatedly-touched working set: the hardware
//                   prefetchers (which this host cannot actually disable)
//                   see a trained stream, approximating production with
//                   hardware prefetching active.
//   kHwOffEmulated  cold working sets scattered at page-randomized slots
//                   of an arena several times the LLC, visited in shuffled
//                   order: every op streams memory the hardware
//                   prefetchers have never seen, approximating the
//                   post-actuation regime Soft Limoncello targets
//                   (paper Fig. 20).
//
// "Untuned" throughout means software prefetching off (a stock library);
// "default" is the single deployed compromise from the site registry; the
// headline geomean compares tuned against untuned in the hw-off regime.
//
// Timing is noisy, so parameter-choice determinism is tested against
// ModelProbe, a seeded synthetic cost surface; MeasuredProbe does the real
// wall-clock measurement.
#ifndef LIMONCELLO_TAX_TAX_TUNER_H_
#define LIMONCELLO_TAX_TAX_TUNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "softpf/prefetch_site_registry.h"
#include "softpf/size_class.h"
#include "softpf/soft_prefetch_config.h"
#include "softpf/tax_kernel.h"
#include "tax/tuned_params.h"

namespace limoncello {

enum class TuneRegime : int { kHwOn, kHwOffEmulated };
const char* TuneRegimeName(TuneRegime regime);

// The (fixed, committed) sweep grid. Determinism of the chosen parameters
// for a given probe follows from the grid order: candidates are evaluated
// in listed order and ties keep the earlier candidate.
struct TunerGrid {
  std::vector<std::uint32_t> distances;
  std::vector<std::uint32_t> degrees;
  std::vector<std::uint8_t> localities;
  std::uint32_t pivot_degree = 256;  // degree held fixed in distance sweep
  std::uint8_t pivot_locality = 3;
  // The best candidate must beat the prefetch-disabled baseline by this
  // factor, or the cell ships disabled (hysteresis against noise).
  double min_gain = 1.02;

  static TunerGrid Default();
  // Coarse grid for the CI gate / smoke runs.
  static TunerGrid Reduced();
};

// Measurement interface: throughput (MB/s of kernel input processed) for
// one kernel x size-class x config x regime cell.
class ThroughputProbe {
 public:
  virtual ~ThroughputProbe() = default;
  virtual double Measure(TaxKernel kernel, int size_class,
                         const SoftPrefetchConfig& config,
                         TuneRegime regime) = 0;
};

// Deterministic synthetic cost surface: a pure function of
// (seed, kernel, size_class, config, regime). Each cell has a hidden
// preferred (distance, degree, locality); throughput rises smoothly as a
// candidate approaches it, with larger attainable gains in the emulated
// hw-off regime. Used by the determinism tests and available to exercise
// the sweep logic without a 3-minute measurement run.
class ModelProbe : public ThroughputProbe {
 public:
  explicit ModelProbe(std::uint64_t seed) : seed_(seed) {}
  double Measure(TaxKernel kernel, int size_class,
                 const SoftPrefetchConfig& config,
                 TuneRegime regime) override;

 private:
  std::uint64_t seed_;
};

struct MeasuredProbeOptions {
  std::uint64_t seed = 0x11770c0ffeeULL;  // workload generation seed
  int reps = 3;               // best-of-reps per measurement
  double budget_ms = 40.0;    // target timed-section length per rep
  // Backing store for the hw-off cold-slot emulation; must be several
  // times the LLC for slots to actually be cold when revisited.
  std::size_t arena_bytes = std::size_t{768} << 20;
  // Scales the hash-join build-side footprint (and with it how far the
  // probe chain walk misses); the default reaches DRAM on the large class.
  double join_footprint_scale = 1.0;
};

// Real wall-clock measurement over the native tax kernels. Workloads are
// generated deterministically from the seed and cached one cell at a time
// (the sweep visits cells sequentially), so peak memory stays near
// arena_bytes. Not thread-safe.
class MeasuredProbe : public ThroughputProbe {
 public:
  explicit MeasuredProbe(MeasuredProbeOptions options = {});
  ~MeasuredProbe() override;
  double Measure(TaxKernel kernel, int size_class,
                 const SoftPrefetchConfig& config,
                 TuneRegime regime) override;

  // Throughput (MB/s) of two adjacent single ops on one cell.
  struct OpPair {
    double a_mbps = 0.0;
    double b_mbps = 0.0;
  };
  // Paired measurement for regression gates: alternates single ops of `a`
  // and `b` on one cell (a b, b a, a b, ...) until there are at least
  // `min_pairs` pairs and `budget_ms` of timed ops, and always returns an
  // odd number of pairs. The two ops of a pair run back to back, so host
  // speed drifting over seconds, or swinging with a neighbour's load,
  // cancels within the pair; a stall that hits one op spoils one pair.
  std::vector<OpPair> MeasureOpPairs(TaxKernel kernel, int size_class,
                                     const SoftPrefetchConfig& a,
                                     const SoftPrefetchConfig& b,
                                     TuneRegime regime, int min_pairs,
                                     double budget_ms);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// One tuned cell of the sweep.
struct TunedCell {
  TaxKernel kernel = TaxKernel::kMemcpy;
  int size_class = 0;
  TuneRegime regime = TuneRegime::kHwOn;
  SoftPrefetchConfig best;        // chosen config (may be Disabled())
  double untuned_mbps = 0.0;      // software prefetching off
  double default_mbps = 0.0;      // registry's deployed compromise
  double tuned_mbps = 0.0;        // the chosen config
  double speedup = 1.0;           // tuned_mbps / untuned_mbps
};

struct TunerReport {
  std::vector<TunedCell> cells;
  double geomean_speedup_hw_off = 1.0;  // headline: tuned vs untuned
  double geomean_speedup_hw_on = 1.0;
};

// Sweeps one cell: untuned + default baselines, then distance at the
// pivot degree, degree at the best distance, locality at the best
// distance/degree. `default_config` is the registry compromise for the
// cell (measured for reference and seeded into the candidate set).
TunedCell SweepCell(ThroughputProbe& probe, TaxKernel kernel, int size_class,
                    TuneRegime regime, const SoftPrefetchConfig& default_config,
                    const TunerGrid& grid);

// Full sweep: every kernel x swept size class x requested regime, with
// default configs taken from `registry`. Cells are ordered kernel-major,
// then size class, then regime (the order regimes appear in `regimes`).
// A non-empty `only` restricts the sweep to the listed kernels (dev /
// triage runs; `bench_tax_tuner --emit-params` refuses them, because the
// table it writes must hold every kernel).
TunerReport RunTunerSweep(ThroughputProbe& probe, const TunerGrid& grid,
                          const std::vector<TuneRegime>& regimes,
                          const PrefetchSiteRegistry& registry,
                          const std::vector<TaxKernel>& only = {});

// Geometric mean of cell speedups for one regime; 1.0 when empty.
double GeomeanSpeedup(const std::vector<TunedCell>& cells,
                      TuneRegime regime);

// The host running this process, as a tuning-host label: CPU model,
// online CPUs and L3 size, e.g. "Intel(R) Xeon(R) Processor, 4 CPUs,
// 300 MiB L3".
std::string DescribeTuningHost();

// The shipping table: hw-off-emulated cells become TunedParams (that is
// the regime Soft Limoncello actually serves). Every row's host is `host`
// (the label of the host that ran the sweep), which must outlive the
// returned rows.
std::vector<TunedParam> SelectTunedParams(const TunerReport& report,
                                          const char* host);

// Renders a complete tax/tuned_params.cc with the given table (the
// --emit-params output). Each distinct row host becomes one named string
// constant that its rows point at.
std::string EmitTunedParamsCc(const std::vector<TunedParam>& params);

}  // namespace limoncello

#endif  // LIMONCELLO_TAX_TAX_TUNER_H_
