// The four workloads. Each runs for about opt.seconds and returns its
// end-to-end numbers; with a tracer it also times the calls into each
// layer it exercises and adds per-layer metrics.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

WorkloadResult RunFleetAb(const RunOptions& opt, Tracer* tracer);
WorkloadResult RunSocketSim(const RunOptions& opt, Tracer* tracer);
WorkloadResult RunWire(const RunOptions& opt, Tracer* tracer);
WorkloadResult RunTaxMix(const RunOptions& opt, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
