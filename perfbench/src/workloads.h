// The three workloads and the traced layer sweep they share.
//
// End-to-end metric names are shared by every workload (BENCHMARK.json
// lists one set for all of them); each workload gives them the meaning
// listed in perfbench/METRICS.md and also reports its own named figures
// (audit_p50_s, query_p99_ms, ...) as report lines.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dataset/dataset.h"

namespace perfbench {

void RunAuditBatch(const Args& args, RunResult* result);
void RunServeMixed(const Args& args, RunResult* result);
void RunIngestWindow(const Args& args, RunResult* result);

/// One dataset class the layer sweep indexes, probes and searches.
struct SweepClass {
  const coverage::Dataset* rows = nullptr;
  std::uint64_t tau = 1;
  int max_level = -1;
};

/// The append stream the sweep replays through a durable session.
struct SweepStream {
  const coverage::Dataset* rows = nullptr;
  std::uint64_t tau = 1;
  int max_level = -1;
  std::size_t batch_rows = 1;
  std::size_t window_rows = 0;
};

/// The first min(d, 11) attributes of `rows`: AirBnB-style data narrow
/// enough that a windowed append costs ~0.1 s (see ingest-window).
coverage::Dataset StreamRows(const coverage::Dataset& rows, std::size_t n);

/// Calls each layer's public functions on the workload's own data, wraps
/// every call in a span, and fills result->layers with every per-layer
/// metric except the loop-derived loadgen.* and obs.trace_overhead.
void SweepLayers(const Args& args, const std::vector<SweepClass>& classes,
                 const SweepStream& stream, Tracer* tracer,
                 RunResult* result);

/// Stores the per-layer metrics that come from the workload loop itself.
void SetLoopLayerMetrics(double lag_p99_us, double backlog_max,
                         double traced_p50, double untraced_p50,
                         RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
