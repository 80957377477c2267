// Soft-Limoncello autotuner driver: sweeps prefetch distance/degree/
// locality per tax kernel x call-size class against the self-timer, in
// both the hw-prefetchers-on regime (warm working sets) and the emulated
// hw-prefetchers-off regime (cold page-scattered working sets; this host
// cannot actually toggle the MSRs), and ships the winners as
// src/tax/tuned_params.cc. Emits BENCH_tax.json with untuned (software
// prefetching off) vs default (registry compromise) vs tuned throughput
// per cell and the tuned-vs-untuned geomean headline.
//
//   bench_tax_tuner [--grid=default|reduced] [--regimes=both|hw_off|hw_on]
//                   [--reps=N] [--budget-ms=MS] [--arena-mb=MB]
//                   [--join-scale=S] [--seed=N] [--smoke]
//                   [--json=BENCH_tax.json] [--emit-params=PATH]
//                   [--gate] [--gate-tolerance=0.90]
//
// --emit-params writes the whole table, so it needs a full hw-off sweep
// and refuses --kernels (or --regimes=hw_on). Each emitted row names this
// host (DescribeTuningHost).
//
// --gate (the bench_tax_gate ctest) re-measures the committed tuned table
// against the untuned baseline per kernel (large class, hw-off regime).
// Each enabled cell is measured as an odd number of untuned/tuned pairs
// of back-to-back single ops, alternating which side runs first, and
// judged on the median pair's ratio; a committed-disabled cell runs the
// same code either way and is not re-measured tuned. The gate fails if any
// median ratio falls below the tolerance, or if any Adaptive* entry point
// heap-allocates at steady state (counted by perfbench's operator-new
// probe). Writes BENCH_tax.gate.json, with each row's tuning host beside
// its committed throughput.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "softpf/size_class.h"
#include "softpf/tax_kernel.h"
#include "tax/adaptive.h"
#include "tax/dict_compressor.h"
#include "tax/hash_join.h"
#include "tax/tax_tuner.h"
#include "tax/tuned_params.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/units.h"

namespace limoncello::bench {
namespace {

volatile std::uint64_t g_sink = 0;

std::string MakeTunerPayload(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string s;
  s.reserve(n + 40);
  const char* phrase = "limoncello prefetchers for scale ";
  while (s.size() < n) {
    if (rng.NextBernoulli(0.7)) {
      s += phrase;
    } else {
      s += static_cast<char>('a' + rng.NextBounded(26));
    }
  }
  s.resize(n);
  return s;
}

// ---------------------------------------------------------------------------
// Steady-state allocation audit of every Adaptive* entry point.

struct AllocAudit {
  const char* name;
  std::uint64_t allocs;
};

std::vector<AllocAudit> AuditAdaptiveAllocs() {
  std::vector<AllocAudit> results;
  results.reserve(16);
  const std::size_t n = std::size_t{1} << 20;  // large class: prefetch on

  const std::string text = MakeTunerPayload(n, 0x5eed);
  std::vector<char> a(n, 'x');
  std::vector<char> b(n, 'y');
  std::vector<std::uint64_t> values(n / 8);
  Rng rng(0x5eed2);
  for (auto& v : values) v = rng.NextU64() >> rng.NextBounded(57);

  const auto audit = [&results](const char* name, auto&& fn) {
    fn();  // warm-up: tuned-table install, capacity growth
    fn();
    perfbench::AllocCounter::Start();
    for (int i = 0; i < 5; ++i) fn();
    results.push_back({name, perfbench::AllocCounter::Stop()});
  };

  audit("memcpy", [&] { AdaptiveMemcpy(a.data(), b.data(), n); });
  audit("memmove",
        [&] { AdaptiveMemmove(a.data() + 64, a.data(), n - 64); });
  audit("memset", [&] { AdaptiveMemset(b.data(), 0x5a, n); });
  audit("fingerprint2011",
        [&] { g_sink = g_sink ^ AdaptiveBlockHash64(a.data(), n); });
  audit("crc32c", [&] { g_sink = g_sink ^ AdaptiveCrc32c(a.data(), n); });

  std::string out;
  audit("snappy_compress", [&] { AdaptiveCompress(text, &out); });
  const std::string compressed = out;
  std::string plain;
  audit("snappy_uncompress",
        [&] { AdaptiveDecompress(compressed, &plain); });

  WireMessage message;
  for (std::uint32_t f = 1; f <= 8; ++f) {
    message.push_back({f, MakeTunerPayload(n / 8, f)});
  }
  std::string wire;
  audit("proto_serialize",
        [&] { AdaptiveWireSerialize(message, &wire); });
  WireMessage parsed;
  audit("proto_parse", [&] { AdaptiveWireParse(wire, &parsed); });

  std::string encoded;
  audit("varint_encode", [&] {
    AdaptiveVarintEncode(values.data(), values.size(), &encoded);
  });
  std::vector<std::uint64_t> decoded;
  audit("varint_decode", [&] { AdaptiveVarintDecode(encoded, &decoded); });

  DictCompressor dict(MakeTunerPayload(64 * kKiB, 0xd1c7));
  std::string dict_out;
  audit("dict_compress",
        [&] { AdaptiveDictCompress(dict, text, &dict_out); });
  const std::string dict_compressed = dict_out;
  std::string dict_plain;
  audit("dict_uncompress", [&] {
    AdaptiveDictDecompress(dict, dict_compressed, &dict_plain);
  });

  const std::size_t nk = n / 16;
  std::vector<std::uint64_t> keys(nk);
  std::vector<std::uint64_t> vals(nk);
  for (std::size_t i = 0; i < nk; ++i) {
    keys[i] = rng.NextU64();
    vals[i] = i;
  }
  HashJoinTable join;
  std::vector<std::uint64_t> sums(nk);
  audit("hashjoin_build", [&] {
    AdaptiveHashJoinBuild(join, keys.data(), vals.data(), nk);
  });
  audit("hashjoin_probe", [&] {
    g_sink = g_sink ^ AdaptiveHashJoinProbe(join, keys.data(), nk, sums.data());
  });
  return results;
}

// ---------------------------------------------------------------------------
// Full sweep mode.

const char* ConfigString(const SoftPrefetchConfig& config, char* buf,
                         std::size_t len) {
  if (!config.enabled) {
    std::snprintf(buf, len, "off");
  } else {
    std::snprintf(buf, len, "d=%u g=%u loc=%u", config.distance_bytes,
                  config.degree_bytes,
                  static_cast<unsigned>(config.locality));
  }
  return buf;
}

void WriteSweepJson(const std::string& path, const TunerReport& report,
                    const std::string& host, const std::string& grid_name,
                    std::size_t arena_mb, int reps, double budget_ms,
                    std::uint64_t seed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(
      f,
      "{\n  \"bench\": \"tax_tuner\",\n  \"host\": \"%s\",\n"
      "  \"grid\": \"%s\",\n"
      "  \"arena_mb\": %zu,\n  \"reps\": %d,\n  \"budget_ms\": %.1f,\n"
      "  \"seed\": %llu,\n"
      "  \"geomean_tuned_vs_untuned_hw_off\": %.4f,\n"
      "  \"geomean_tuned_vs_untuned_hw_on\": %.4f,\n  \"cells\": [\n",
      host.c_str(), grid_name.c_str(), arena_mb, reps, budget_ms,
      static_cast<unsigned long long>(seed),
      report.geomean_speedup_hw_off, report.geomean_speedup_hw_on);
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const TunedCell& cell = report.cells[i];
    std::fprintf(
        f,
        "    {\"kernel\": \"%s\", \"size_class\": \"%s\", "
        "\"regime\": \"%s\", \"untuned_mbps\": %.1f, "
        "\"default_mbps\": %.1f, \"tuned_mbps\": %.1f, "
        "\"speedup\": %.3f, \"config\": {\"enabled\": %s, "
        "\"distance_bytes\": %u, \"degree_bytes\": %u, \"locality\": %u}}"
        "%s\n",
        TaxKernelSiteName(cell.kernel), kSizeClassNames[cell.size_class],
        TuneRegimeName(cell.regime), cell.untuned_mbps, cell.default_mbps,
        cell.tuned_mbps, cell.speedup,
        cell.best.enabled ? "true" : "false", cell.best.distance_bytes,
        cell.best.degree_bytes, static_cast<unsigned>(cell.best.locality),
        i + 1 < report.cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int RunSweep(const FlagParser& flags) {
  const bool smoke = flags.GetBool("smoke").value_or(false);
  const std::string grid_name =
      flags.GetString("grid").value_or(smoke ? "reduced" : "default");
  TunerGrid grid = grid_name == "reduced" ? TunerGrid::Reduced()
                                          : TunerGrid::Default();

  MeasuredProbeOptions options;
  options.seed = static_cast<std::uint64_t>(
      flags.GetInt("seed").value_or(0x11770c0ffeeLL));
  options.reps = static_cast<int>(flags.GetInt("reps").value_or(smoke ? 1 : 3));
  options.budget_ms =
      flags.GetDouble("budget-ms").value_or(smoke ? 4.0 : 40.0);
  options.arena_bytes =
      static_cast<std::size_t>(
          flags.GetInt("arena-mb").value_or(smoke ? 64 : 768))
      << 20;
  options.join_footprint_scale =
      flags.GetDouble("join-scale").value_or(smoke ? 0.05 : 1.0);

  const std::string regimes_name =
      flags.GetString("regimes").value_or("both");
  std::vector<TuneRegime> regimes;
  if (regimes_name == "hw_off") {
    regimes = {TuneRegime::kHwOffEmulated};
  } else if (regimes_name == "hw_on") {
    regimes = {TuneRegime::kHwOn};
  } else {
    regimes = {TuneRegime::kHwOffEmulated, TuneRegime::kHwOn};
  }

  // --kernels=a,b,c restricts the sweep by site-name substring match
  // (dev / triage runs; the committed table comes from a full sweep).
  std::vector<TaxKernel> only;
  if (const auto filter = flags.GetString("kernels"); filter.has_value()) {
    std::string list = *filter;
    for (char& c : list) {
      if (c == ',') c = '\0';
    }
    for (std::size_t pos = 0; pos < list.size();
         pos += std::strlen(list.c_str() + pos) + 1) {
      const char* name = list.c_str() + pos;
      if (*name == '\0') continue;
      for (int k = 0; k < kNumTaxKernels; ++k) {
        if (std::strstr(TaxKernelSiteName(TaxKernelAt(k)), name) !=
            nullptr) {
          only.push_back(TaxKernelAt(k));
        }
      }
    }
    if (only.empty()) {
      std::fprintf(stderr, "error: --kernels=%s matches no tax kernel\n",
                   filter->c_str());
      return 1;
    }
  }

  const std::optional<std::string> emit = flags.GetString("emit-params");
  if (emit.has_value() &&
      (!only.empty() || regimes.front() != TuneRegime::kHwOffEmulated)) {
    std::fprintf(stderr,
                 "error: --emit-params writes the whole table and needs a "
                 "full hw-off sweep; drop --kernels and --regimes=hw_on\n");
    return 2;
  }

  MeasuredProbe probe(options);
  const PrefetchSiteRegistry registry =
      PrefetchSiteRegistry::DeployedDefault();
  const TunerReport report =
      RunTunerSweep(probe, grid, regimes, registry, only);

  Table table({"kernel", "class", "regime", "untuned MB/s", "default MB/s",
               "tuned MB/s", "speedup", "chosen"});
  char cfg[64];
  for (const TunedCell& cell : report.cells) {
    table.AddRow({TaxKernelSiteName(cell.kernel),
                  kSizeClassNames[cell.size_class],
                  TuneRegimeName(cell.regime),
                  Table::Num(cell.untuned_mbps, 1),
                  Table::Num(cell.default_mbps, 1),
                  Table::Num(cell.tuned_mbps, 1),
                  Table::Num(cell.speedup, 3),
                  ConfigString(cell.best, cfg, sizeof(cfg))});
  }
  const std::string host = DescribeTuningHost();
  table.Print("Per-kernel prefetch autotuning (untuned = sw prefetch off)");
  std::printf(
      "\ngeomean tuned vs untuned: %.3fx (hw-off emulated), %.3fx (hw on)\n"
      "host: %s\n",
      report.geomean_speedup_hw_off, report.geomean_speedup_hw_on,
      host.c_str());

  WriteSweepJson(flags.GetString("json").value_or("BENCH_tax.json"), report,
                 host, grid_name, options.arena_bytes >> 20, options.reps,
                 options.budget_ms, options.seed);

  if (emit.has_value()) {
    const std::string cc =
        EmitTunedParamsCc(SelectTunedParams(report, host.c_str()));
    std::FILE* f = std::fopen(emit->c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", emit->c_str());
      return 1;
    }
    const std::size_t written = std::fwrite(cc.data(), 1, cc.size(), f);
    std::fclose(f);
    if (written != cc.size()) {
      std::fprintf(stderr, "error: short write to %s\n", emit->c_str());
      return 1;
    }
    std::printf("wrote %s\n", emit->c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Gate mode: committed tuned table vs untuned baseline + alloc audit.

// Each enabled cell is measured as untuned/tuned pairs of back-to-back
// single ops (MeasuredProbe::MeasureOpPairs): at least kGateMinPairs, and
// at least kGateBudgetMs of timed ops, so fast kernels take hundreds of
// pairs and a 160 ms-per-op kernel takes the minimum. Pairs of longer
// windows do not hold the tolerance: on a shared 4-CPU KVM host, per-op
// speed swings 2x within a second while other tests run, so two windows a
// few hundred ms apart can differ by more than 10% on identical code.
constexpr int kGateMinPairs = 21;
constexpr double kGateBudgetMs = 500.0;

struct GateRow {
  const char* kernel;
  const char* host;  // the committed row's tuning host
  // The pair at the median ratio (a disabled cell: one untuned window).
  double untuned_mbps = 0.0;
  double tuned_mbps = 0.0;
  double ratio = 0.0;
  int pairs = 0;
  double ratio_p25 = 0.0;  // quartiles of the pair ratios
  double ratio_p75 = 0.0;
  float committed_tuned_mbps = 0.0f;
  bool pass = false;
};

// Judges an enabled cell on the median of its pair ratios: a stall or a
// lucky op moves the verdict by one rank instead of deciding it.
void MeasureEnabledCell(MeasuredProbe& probe, const TunedParam& p,
                        GateRow* row) {
  std::vector<MeasuredProbe::OpPair> pairs = probe.MeasureOpPairs(
      p.kernel, p.size_class, SoftPrefetchConfig::Disabled(), p.config,
      TuneRegime::kHwOffEmulated, kGateMinPairs, kGateBudgetMs);
  const auto ratio = [](const MeasuredProbe::OpPair& pair) {
    return pair.a_mbps > 0.0 ? pair.b_mbps / pair.a_mbps : 0.0;
  };
  std::sort(pairs.begin(), pairs.end(),
            [&](const MeasuredProbe::OpPair& x,
                const MeasuredProbe::OpPair& y) {
              return ratio(x) < ratio(y);
            });
  const MeasuredProbe::OpPair& median = pairs[pairs.size() / 2];
  row->untuned_mbps = median.a_mbps;
  row->tuned_mbps = median.b_mbps;
  row->ratio = ratio(median);
  row->pairs = static_cast<int>(pairs.size());
  row->ratio_p25 = ratio(pairs[pairs.size() / 4]);
  row->ratio_p75 = ratio(pairs[pairs.size() * 3 / 4]);
}

int RunGate(const FlagParser& flags) {
  const double tolerance =
      flags.GetDouble("gate-tolerance").value_or(0.90);

  MeasuredProbeOptions options;
  options.seed = static_cast<std::uint64_t>(
      flags.GetInt("seed").value_or(0x11770c0ffeeLL));
  // Reps and budget apply to the one untuned window of a disabled cell;
  // enabled cells are measured in op pairs (MeasureEnabledCell).
  options.reps = static_cast<int>(flags.GetInt("reps").value_or(3));
  options.budget_ms = flags.GetDouble("budget-ms").value_or(30.0);
  // Above the LLC so cold slots stay cold, below the full-sweep default so
  // the gate stays ctest-fast.
  options.arena_bytes =
      static_cast<std::size_t>(flags.GetInt("arena-mb").value_or(384)) << 20;
  options.join_footprint_scale =
      flags.GetDouble("join-scale").value_or(0.25);
  MeasuredProbe probe(options);

  // Committed large-class config per kernel.
  const int sc = kNumSizeClasses - 1;
  std::vector<GateRow> rows;
  bool pass = true;
  for (std::size_t i = 0; i < TunedParamsCount(); ++i) {
    const TunedParam& p = TunedParamsBegin()[i];
    if (p.size_class != sc) continue;
    GateRow row;
    row.kernel = TaxKernelSiteName(p.kernel);
    row.host = p.host;
    row.committed_tuned_mbps = p.tuned_mbps;
    if (!p.config.enabled) {
      // A committed-disabled cell runs the identical code path tuned and
      // untuned; measuring it twice can only report timing noise (which
      // has been observed at +-20% at gate budgets — far beyond the
      // tolerance this gate enforces).
      row.untuned_mbps =
          probe.Measure(p.kernel, sc, SoftPrefetchConfig::Disabled(),
                        TuneRegime::kHwOffEmulated);
      row.tuned_mbps = row.untuned_mbps;
      row.ratio = 1.0;
    } else {
      MeasureEnabledCell(probe, p, &row);
    }
    row.pass = row.ratio >= tolerance;
    pass = pass && row.pass;
    rows.push_back(row);
  }

  const std::vector<AllocAudit> audits = AuditAdaptiveAllocs();
  std::uint64_t total_allocs = 0;
  for (const AllocAudit& a : audits) total_allocs += a.allocs;
  pass = pass && total_allocs == 0;

  Table table({"kernel", "untuned MB/s", "tuned MB/s", "ratio", "pairs",
               "ratio IQR", "pass", "committed MB/s", "tuned on"});
  for (const GateRow& row : rows) {
    table.AddRow(
        {row.kernel, Table::Num(row.untuned_mbps, 1),
         Table::Num(row.tuned_mbps, 1), Table::Num(row.ratio, 3),
         Table::Num(static_cast<std::int64_t>(row.pairs)),
         row.pairs > 0 ? Table::Num(row.ratio_p25, 3) + "-" +
                             Table::Num(row.ratio_p75, 3)
                       : "-",
         row.pass ? "yes" : "NO",
         Table::Num(static_cast<double>(row.committed_tuned_mbps), 1),
         row.host});
  }
  table.Print(
      "Tuned-vs-untuned gate (large class, hw-off emulated, median of "
      "untuned/tuned op pairs)");
  std::printf("\nadaptive steady-state allocs: %llu (15 entry points)\n",
              static_cast<unsigned long long>(total_allocs));

  const std::string json_path =
      flags.GetString("json").value_or("BENCH_tax.gate.json");
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"tax_tuner_gate\",\n"
               "  \"host\": \"%s\",\n  \"tolerance\": %.2f,\n"
               "  \"min_pairs\": %d,\n  \"kernels\": [\n",
               DescribeTuningHost().c_str(), tolerance, kGateMinPairs);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const GateRow& row = rows[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"untuned_mbps\": %.1f, "
                 "\"tuned_mbps\": %.1f, \"ratio\": %.3f, "
                 "\"pairs\": %d, \"ratio_p25\": %.3f, "
                 "\"ratio_p75\": %.3f, "
                 "\"committed_tuned_mbps\": %.1f, \"host\": \"%s\", "
                 "\"pass\": %s}%s\n",
                 row.kernel, row.untuned_mbps, row.tuned_mbps, row.ratio,
                 row.pairs, row.ratio_p25, row.ratio_p75,
                 static_cast<double>(row.committed_tuned_mbps), row.host,
                 row.pass ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"adaptive_steady_state_allocs\": [\n");
  for (std::size_t i = 0; i < audits.size(); ++i) {
    std::fprintf(f, "    {\"entry_point\": \"%s\", \"allocs\": %llu}%s\n",
                 audits[i].name,
                 static_cast<unsigned long long>(audits[i].allocs),
                 i + 1 < audits.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"pass\": %s\n}\n", pass ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());

  if (!pass) {
    for (const GateRow& row : rows) {
      if (!row.pass) {
        std::fprintf(stderr,
                     "FAIL: %s tuned config measures %.3fx the untuned "
                     "baseline (median of %d pairs; tolerance %.2f; tuned "
                     "on %s)\n",
                     row.kernel, row.ratio, row.pairs, tolerance, row.host);
      }
    }
    for (const AllocAudit& a : audits) {
      if (a.allocs != 0) {
        std::fprintf(stderr,
                     "FAIL: Adaptive %s performed %llu steady-state heap "
                     "allocations; the adaptive hot paths must be "
                     "allocation-free\n",
                     a.name, static_cast<unsigned long long>(a.allocs));
      }
    }
    return 1;
  }
  std::printf("gate OK (tolerance %.2f, 0 steady-state allocs)\n",
              tolerance);
  return 0;
}

}  // namespace
}  // namespace limoncello::bench

int main(int argc, char** argv) {
  limoncello::FlagParser flags;
  flags.Define("grid", "sweep grid: default | reduced")
      .Define("regimes", "both | hw_off | hw_on (default both)")
      .Define("reps", "best-of reps per measurement (default 3)")
      .Define("budget-ms", "timed-section target per rep (default 40)")
      .Define("arena-mb", "cold-slot arena size (default 768, gate 384)")
      .Define("join-scale", "hash-join build footprint scale (default 1.0)")
      .Define("seed", "workload generation seed")
      .Define("kernels",
              "comma-separated site-name substrings to restrict the sweep")
      .Define("smoke", "reduced grid and tiny budgets for CI")
      .Define("json", "output path (default BENCH_tax.json / .gate.json)")
      .Define("emit-params", "write generated tuned_params.cc to this path")
      .Define("gate", "verify committed tuned params + zero-alloc audit")
      .Define("gate-tolerance",
              "min median tuned/untuned ratio per kernel (default 0.90)")
      .Define("help", "show this help");
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(),
                 flags.Help(argv[0]).c_str());
    return 2;
  }
  if (flags.GetBool("help").value_or(false)) {
    std::printf("%s", flags.Help(argv[0]).c_str());
    return 0;
  }
  if (flags.GetBool("gate").value_or(false)) {
    return limoncello::bench::RunGate(flags);
  }
  return limoncello::bench::RunSweep(flags);
}
