// Copyright (c) memflow authors. MIT license.
//
// The benchmark's three workloads (README.md explains why each exists):
//
//   dag-mix        random admissible DAGs from testing::GenerateJobSpec,
//                  one burst on the Fig. 1b memory pool, 1 worker;
//   dbms-pipeline  hash join + scan/aggregate + week-long hospital job on
//                  the CXL expansion host, 2 workers;
//   serve-bursty   open-loop single-task jobs through ServingLayer::Offer,
//                  an interactive Poisson tenant and a bursty batch tenant,
//                  1 worker.
//
// A workload turns a seed into inputs and runs one repetition at a time:
// set-up (cluster, runtime, inputs), the timed run, then output checks.
// Every repetition of one process sees the same inputs, so its
// virtual-time results and output digests must repeat exactly.

#ifndef MEMFLOW_PERFBENCH_WORKLOADS_H_
#define MEMFLOW_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dataflow/job.h"
#include "rts/runtime.h"
#include "simhw/cluster.h"
#include "spans.h"

namespace memflow::perfbench {

enum class Size { kTiny, kFull };

struct RepOptions {
  // Default RuntimeOptions ship the self-profiler on; the traced run also
  // times repetitions with it off to price it.
  bool self_profile = true;
  // Non-null: record spans (Submit/Offer/RunToCompletion/bodies) here.
  SpanRecorder* spans = nullptr;
  // Deliberately corrupt one output, so the checks must count a failure.
  bool corrupt = false;
};

// Counters the runtime already exposes, read after the run.
struct LayerCounters {
  rts::RuntimeStats stats;
  telemetry::SelfProfile profile;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t region_allocations = 0;
  std::uint64_t region_transfers = 0;
  std::uint64_t region_migrations = 0;
  std::uint64_t region_accesses = 0;  // data-path reads + writes
  std::uint64_t bytes_read[4] = {};     // by region::RegionClass
  std::uint64_t bytes_written[4] = {};
  // Serving only.
  std::uint64_t offered = 0;
  std::uint64_t refused[4] = {};  // quota, slo, infeasible, backpressure
  std::vector<double> offer_ns;         // traced repetitions only
  std::vector<double> predict_err_us;   // |finish - predicted_finish|
};

struct RepResult {
  // Host time, ns.
  double setup_ns = 0;
  double admit_ns = 0;     // inside Submit / Offer
  double run_ns = 0;       // inside RunToCompletion minus arrival callbacks
  double wall_ns = 0;      // first Submit to quiescence, minus arrival callbacks
  std::uint64_t tasks_admitted = 0;
  std::uint64_t tasks_executed = 0;
  // Operations (jobs) and their correctness.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Deterministic per-job digests (outputs + virtual times), compared
  // across repetitions by the caller.
  std::vector<std::uint64_t> digests;
  // Virtual-time results.
  double virt_makespan_ms = 0;
  double p50_us = 0;
  double p99_us = 0;
  double goodput_per_s = 0;
  // Resident memory (KiB) around the repetition's first runtime, and the
  // jobs that runtime served.
  double rss_after_setup_kib = 0;
  double rss_quiescent_kib = 0;
  std::uint64_t jobs_served = 0;
  LayerCounters layer;
  std::vector<std::string> problems;  // human-readable check failures
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int workers() const = 0;
  // One repetition: set-up, timed run, checks.
  virtual RepResult Run(const RepOptions& opts) = 0;
  // The workload's jobs and a fresh cluster of its topology, for the traced
  // run's direct per-layer probes.
  virtual std::vector<dataflow::Job> ProbeJobs() const = 0;
  virtual std::unique_ptr<simhw::Cluster> ProbeCluster() const = 0;
};

// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed, Size size);

// Current and peak resident set of this process, KiB.
double RssKib();
double PeakRssKib();

// Median, and nearest-rank quantile (p in [0, 1]); 0 for an empty sample.
double Median(std::vector<double> sample);
double Quantile(std::vector<double> sample, double p);

// The cluster's first CPU (reads of sink outputs and region probes use it).
simhw::ComputeDeviceId FirstCpu(const simhw::Cluster& cluster);

}  // namespace memflow::perfbench

#endif  // MEMFLOW_PERFBENCH_WORKLOADS_H_
