// Copyright (c) memflow authors. MIT license.
//
// Direct per-layer probes for the traced run: the benchmark calls each
// layer's public functions itself, on the workload's own jobs and a fresh
// cluster of the workload's topology, and times them. Each figure is the
// median over several timed passes.

#ifndef MEMFLOW_PERFBENCH_PROBES_H_
#define MEMFLOW_PERFBENCH_PROBES_H_

#include <vector>

#include "dataflow/job.h"
#include "simhw/cluster.h"
#include "spans.h"

namespace memflow::perfbench {

struct ProbeResults {
  double validate_ns_per_task = 0;  // dataflow: Job::Validate
  double verify_ns_per_task = 0;    // analysis: Verify(job, &cluster)
  double place_ns_per_task = 0;     // rts: PlacementPolicy::Place (cost model)
  double estimate_miss_ns = 0;      // rts: CostModel::Estimate, memo off
  double estimate_hit_ns = 0;       // rts: CostModel::Estimate, memo warm
  double view_ns = 0;               // simhw: Cluster::View per pair
  double alloc_free_ns = 0;         // region: Allocate + Free, 4 KiB
  double alloc_touch_free_ns = 0;   // same, plus a first 64-byte write
  double sync_read_ns_4k = 0;
  double sync_read_ns_1m = 0;
  double sync_write_ns_4k = 0;
  double sync_write_ns_1m = 0;
  double async_drain_ns_4k = 0;     // EnqueueRead + Drain
  double async_drain_ns_1m = 0;
  double keystream_ns_per_kib = 0;  // region::ApplyKeystream
};

// Records one span per probe under a "probes" root in `spans`.
ProbeResults RunProbes(const std::vector<dataflow::Job>& jobs, simhw::Cluster& cluster,
                       SpanRecorder& spans);

}  // namespace memflow::perfbench

#endif  // MEMFLOW_PERFBENCH_PROBES_H_
