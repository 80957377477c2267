// perfbench: the repository benchmark binary (run it through
// run.py, which builds it). See README.md in this directory.
//
//   perfbench --workload=<fleet_ab|socket_sim|wire|tax_mix|all>
//             --seed=N --seconds=S --trace=0|1
//             --daemon=<limoncellod binary> --scratch=<build dir>
//
// Untraced runs print the end-to-end metrics. A traced run (--trace=1)
// first repeats the named workload untraced, then runs every workload
// with spans around the calls into each layer, and prints every
// per-layer metric plus the tracing overhead on the named workload's
// end-to-end metrics. The last stdout line is one JSON object.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct WorkloadEntry {
  const char* name;
  WorkloadResult (*run)(const RunOptions&, Tracer*);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"fleet_ab", RunFleetAb},
    {"socket_sim", RunSocketSim},
    {"wire", RunWire},
    {"tax_mix", RunTaxMix},
};

const WorkloadEntry* FindWorkload(const std::string& name) {
  for (const WorkloadEntry& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bool ParseArgs(int argc, char** argv, RunOptions* opt, int* trace) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "bad argument '%s' (want --key=value)\n",
                   arg.c_str());
      return false;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      opt->workload = value;
    } else if (key == "seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(opt->seconds > 0)) {
        return false;
      }
    } else if (key == "trace") {
      if (value != "0" && value != "1") return false;
      *trace = value == "1";
    } else if (key == "daemon") {
      opt->daemon_path = value;
    } else if (key == "scratch") {
      opt->scratch_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      return false;
    }
  }
  return opt->workload == "all" || FindWorkload(opt->workload) != nullptr;
}

void PrintHost(const RunOptions& opt, int trace) {
  const std::uint64_t l3 = L3Bytes();
  std::printf("host: nproc=%d cpu=\"%s\" l3=%.0fMiB compiler=\"%s\" "
              "build_type=%s\n",
              Nproc(), CpuModel().c_str(),
              static_cast<double>(l3) / (1024.0 * 1024.0),
              CompilerId().c_str(), BuildType().c_str());
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, trace);
}

void PrintResult(const WorkloadResult& r, const char* label) {
  std::printf("== %s %s: attempted=%llu failed=%llu correct=%s\n",
              r.workload.c_str(), label,
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.correct ? "true" : "false");
  for (const std::string& note : r.notes) std::printf("  %s\n", note.c_str());
  PrintMetrics("  by name:", r.named);
  PrintMetrics("  end to end:", EndToEndMetrics(r));
}

void PrintJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(metrics[i].name) + "\": {\"value\": " + value +
           ", \"unit\": \"" + JsonEscape(metrics[i].unit) + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// Every reported metric must be a finite, nonzero measurement.
bool AllMeasured(const std::vector<Metric>& metrics) {
  bool ok = true;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value) || m.value == 0.0) {
      std::printf("  error: metric %s was not measured (%g)\n",
                  m.name.c_str(), m.value);
      ok = false;
    }
  }
  return ok;
}

int RunUntraced(const RunOptions& opt) {
  std::vector<WorkloadResult> results;
  if (opt.workload == "all") {
    for (const WorkloadEntry& w : kWorkloads) {
      RunOptions one = opt;
      one.workload = w.name;
      results.push_back(w.run(one, nullptr));
      PrintResult(results.back(), "(untraced)");
    }
  } else {
    results.push_back(FindWorkload(opt.workload)->run(opt, nullptr));
    PrintResult(results.back(), "(untraced)");
  }
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  for (const WorkloadResult& r : results) {
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    for (Metric m : EndToEndMetrics(r)) {
      if (results.size() > 1) m.name = r.workload + "." + m.name;
      metrics.push_back(m);
    }
  }
  correct = AllMeasured(metrics) && correct;
  PrintJson(correct, attempted, failed, metrics);
  return 0;
}

int RunTraced(const RunOptions& opt) {
  if (opt.workload == "all") {
    std::fprintf(stderr, "--trace=1 needs one workload\n");
    return 2;
  }
  // The named workload untraced, for the tracing-overhead comparison.
  RunOptions half = opt;
  half.seconds = opt.seconds / 2;
  const WorkloadResult untraced =
      FindWorkload(opt.workload)->run(half, nullptr);
  PrintResult(untraced, "(untraced, for overhead)");

  bool correct = untraced.correct;
  std::uint64_t attempted = untraced.attempted;
  std::uint64_t failed = untraced.failed;
  std::vector<Metric> per_layer;
  const WorkloadResult* traced_self = nullptr;
  std::vector<WorkloadResult> traced;
  traced.reserve(std::size(kWorkloads));
  for (const WorkloadEntry& w : kWorkloads) {
    RunOptions one = opt;
    one.workload = w.name;
    one.seconds = opt.seconds / 4;
    Tracer tracer;
    traced.push_back(w.run(one, &tracer));
    const WorkloadResult& r = traced.back();
    PrintResult(r, "(traced)");
    if (!opt.scratch_dir.empty()) {
      const std::string path = opt.scratch_dir + "/spans-" + w.name + "-" +
                               std::to_string(opt.seed) + ".tsv";
      if (tracer.WriteTsv(path)) {
        std::printf("  spans: %zu recorded, %zu kept in %s\n",
                    tracer.spans_recorded(), tracer.spans_kept(),
                    path.c_str());
      }
    }
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    per_layer.insert(per_layer.end(), r.per_layer.begin(),
                     r.per_layer.end());
    if (opt.workload == w.name) traced_self = &r;
  }

  std::printf("== tracing overhead on %s (traced vs untraced)\n",
              opt.workload.c_str());
  const std::vector<Metric> before = EndToEndMetrics(untraced);
  const std::vector<Metric> after = EndToEndMetrics(*traced_self);
  for (std::size_t i = 0; i < before.size(); ++i) {
    const double delta = before[i].value != 0.0
                             ? 100.0 * (after[i].value / before[i].value - 1)
                             : 0.0;
    std::printf("  %-44s %.6g -> %.6g %s (%+.1f%%)\n", before[i].name.c_str(),
                before[i].value, after[i].value, before[i].unit.c_str(),
                delta);
  }
  PrintMetrics("== per-layer metrics", per_layer);
  correct = AllMeasured(per_layer) && correct;
  PrintJson(correct, attempted, failed, per_layer);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  int trace = 0;
  if (!perfbench::ParseArgs(argc, argv, &opt, &trace)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=<fleet_ab|socket_sim|wire|"
                 "tax_mix|all> --seed=N --seconds=S --trace=0|1 "
                 "--daemon=PATH --scratch=DIR\n");
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  perfbench::PrintHost(opt, trace);
  const perfbench::CpuTimes before = perfbench::CpuTimes::Now();
  const int status =
      trace ? perfbench::RunTraced(opt) : perfbench::RunUntraced(opt);
  // Printed to stderr: the last stdout line stays the JSON result.
  std::fprintf(stderr, "host: %.2f%% of CPU time stolen by the hypervisor\n",
               100.0 * perfbench::StealShare(before,
                                             perfbench::CpuTimes::Now()));
  return status;
}
