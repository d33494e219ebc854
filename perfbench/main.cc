// Copyright (c) memflow authors. MIT license.
//
// memflow_perfbench: runs one workload for a fixed time and prints its
// metrics. Usage (normally through perfbench/run.py, which builds it):
//
//   memflow_perfbench --workload dag-mix|dbms-pipeline|serve-bursty
//                     --seed N --seconds S --trace 0|1
//                     [--size tiny|full] [--corrupt] [--trace-out PATH]
//                     [--commit ID]
//
// The process repeats the workload (set-up, timed run, output checks) until
// --seconds have passed, and reports medians over the repetitions. With
// --trace 0 it prints the end-to-end metrics; with --trace 1 it interleaves
// untraced, traced and self-profiler-off repetitions, runs the direct
// per-layer probes, prints the per-layer self-time table and reports the
// per-layer metrics. The last stdout line is always the JSON result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "probes.h"
#include "spans.h"
#include "workloads.h"

namespace memflow::perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  bool corrupt = false;
  std::string trace_out;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      args.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--size") {
      args.size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !args.workload.empty();
}

// Timings from Debug or sanitizer builds say nothing about the runtime.
const char* UnfitBuild() {
#ifndef NDEBUG
  return "assertions enabled (Debug build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return "sanitizer build";
#endif
#endif
  return nullptr;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Divisor for per-task figures (a run that executed nothing reads 0 ns).
double PerTaskBase(std::uint64_t tasks) {
  return static_cast<double>(std::max<std::uint64_t>(tasks, 1));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string ResultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "" : ", ") + JsonQuote(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": " + JsonQuote(metrics[i].unit) + "}";
  }
  return json + "}}";
}

// Which repetitions a run interleaves.
enum class RepKind { kPlain = 0, kTraced = 1, kNoSelfProfile = 2 };

// Per-repetition numbers the traced run derives from its spans and the
// self-profiler (ns per task unless named otherwise).
struct TracedRep {
  double admit_self = 0;
  double verify = 0;
  double place = 0;
  double body = 0;
  double body_region_est = 0;
  double dispatch_self = 0;
  double event_drain = 0;
  double stage = 0;
  double commit = 0;
  double batch_tasks = 0;
  double residual_pct = 0;
};

const telemetry::PhaseStat* FindPhase(const std::vector<telemetry::PhaseStat>& stats,
                                      telemetry::Phase phase) {
  for (const telemetry::PhaseStat& s : stats) {
    if (s.phase == phase) {
      return &s;
    }
  }
  return nullptr;
}

double PhaseNs(const telemetry::SelfProfile& p, telemetry::Phase phase, bool exclusive) {
  const telemetry::PhaseStat* s = FindPhase(p.phases, phase);
  if (s == nullptr) {
    return 0;
  }
  return static_cast<double>(exclusive ? s->exclusive_ns : s->inclusive_ns);
}

double PhaseCalls(const telemetry::SelfProfile& p, telemetry::Phase phase) {
  double calls = 0;
  for (const auto* stats : {&p.phases, &p.worker_phases}) {
    if (const telemetry::PhaseStat* s = FindPhase(*stats, phase)) {
      calls += static_cast<double>(s->calls);
    }
  }
  return calls;
}

// Region time inside task bodies, estimated from the probes: a per-access
// fixed cost and a per-byte cost fitted through the 4 KiB and 1 MiB async
// drains, plus one Allocate + first write + Free per allocation.
double RegionEstimateNs(const LayerCounters& c, const ProbeResults& p) {
  const double per_byte =
      std::max(0.0, (p.async_drain_ns_1m - p.async_drain_ns_4k) / ((1 << 20) - 4096.0));
  const double per_access = std::max(0.0, p.async_drain_ns_4k - 4096.0 * per_byte);
  double bytes = 0;
  for (int k = 0; k < 4; ++k) {
    bytes += static_cast<double>(c.bytes_read[k] + c.bytes_written[k]);
  }
  return static_cast<double>(c.region_allocations) * p.alloc_touch_free_ns +
         static_cast<double>(c.region_accesses) * per_access + bytes * per_byte;
}

// What one traced repetition's spans add up to, ns.
struct SpanSums {
  double admission = 0;  // rts.submit + rts.serving.offer
  double body = 0;       // rts.body
  double run_self = 0;   // rts.run minus its children
  double rep = 0;        // rep roots
  double rep_self = 0;   // rep roots minus their children: the residual
};

SpanSums Summarize(const std::vector<Span>& spans) {
  SpanSums sums;
  const std::vector<std::int64_t> self = SelfTimes(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    if (s.name == "rts.submit" || s.name == "rts.serving.offer") {
      sums.admission += dur;
    } else if (s.name == "rts.body") {
      sums.body += dur;
    } else if (s.name == "rts.run") {
      sums.run_self += static_cast<double>(self[i]);
    } else if (s.name == "rep") {
      sums.rep += dur;
      sums.rep_self += static_cast<double>(self[i]);
    }
  }
  return sums;
}

TracedRep Derive(const RepResult& r, const SpanSums& sums, const ProbeResults& p) {
  TracedRep t;
  const double admitted = PerTaskBase(r.tasks_admitted);
  const double executed = PerTaskBase(r.tasks_executed);
  const telemetry::SelfProfile& prof = r.layer.profile;
  using telemetry::Phase;
  t.verify = PhaseNs(prof, Phase::kAdmissionVerify, false) / admitted;
  t.place = PhaseNs(prof, Phase::kPlacementScore, false) / admitted;
  t.admit_self = sums.admission / admitted - t.verify - t.place;
  t.body = sums.body / executed;
  t.body_region_est = RegionEstimateNs(r.layer, p) / executed;
  t.dispatch_self = sums.run_self / executed;
  t.event_drain = PhaseNs(prof, Phase::kEventDrain, true) / executed;
  t.stage = PhaseNs(prof, Phase::kStage, true) / executed;
  t.commit = PhaseNs(prof, Phase::kBatchCommit, true) / executed;
  t.batch_tasks = Ratio(PhaseCalls(prof, Phase::kBody), PhaseCalls(prof, Phase::kBatchRun));
  t.residual_pct = 100.0 * Ratio(sums.rep_self, sums.rep);
  return t;
}

void PrintLayerTable(const std::map<std::string, SpanTotal>& totals, int reps,
                     double tasks_per_rep) {
  std::printf("\nper-layer self time, %d traced repetition(s), %.0f tasks each\n", reps,
              tasks_per_rep);
  std::printf("  %-22s %12s %14s %14s %8s\n", "span", "calls/rep", "self ms/rep", "self ns/task",
              "share");
  const auto rep = totals.find("rep");
  const double rep_ns = rep == totals.end() ? 0 : static_cast<double>(rep->second.total_ns);
  for (const auto& [name, t] : totals) {
    std::printf("  %-22s %12.1f %14.3f %14.1f %7.2f%%\n", name.c_str(),
                static_cast<double>(t.calls) / reps, static_cast<double>(t.self_ns) / 1e6 / reps,
                static_cast<double>(t.self_ns) / reps / std::max(tasks_per_rep, 1.0),
                100.0 * Ratio(static_cast<double>(t.self_ns), rep_ns));
  }
  std::printf("  (\"rep\" self time is the identity residual: wall not covered by any layer)\n");
}

int Main(int argc, char** argv) {
  // glibc adapts its mmap and trim thresholds to the sizes freed so far,
  // which made dbms-pipeline's peak RSS flip between two levels depending
  // on the seed's table sizes. Fixed thresholds (the mmap one at glibc's
  // adaptive maximum, trimming above 128 MiB so repetitions reuse the warm
  // heap instead of faulting it in again) keep peak RSS a function of the
  // inputs.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 128 << 20);
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: memflow_perfbench --workload NAME --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  if (const char* why = UnfitBuild()) {
    std::fprintf(stderr, "refusing to record from this build: %s\n", why);
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed, args.size);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  SetLogLevel(LogLevel::kError);

  std::printf(
      "{\"meta\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"size\": %s, \"workers\": %d, \"nproc\": %u, \"build_type\": %s, \"compiler\": %s, "
      "\"commit\": %s}}\n",
      JsonQuote(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      JsonNumber(args.seconds).c_str(), args.trace ? 1 : 0,
      args.size == Size::kTiny ? "\"tiny\"" : "\"full\"", workload->workers(),
      std::thread::hardware_concurrency(), JsonQuote(MEMFLOW_BENCH_BUILD_TYPE).c_str(),
      JsonQuote(MEMFLOW_BENCH_COMPILER).c_str(), JsonQuote(args.commit).c_str());
  std::fflush(stdout);

  // --- repetitions ---------------------------------------------------------------
  const int min_reps = args.trace ? 6 : 3;
  const std::int64_t budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  std::vector<double> setup_s, admit, run[3], wall[3];
  std::vector<RepResult> traced_reps;
  std::vector<SpanSums> traced_sums;
  std::map<std::string, SpanTotal> span_totals;
  std::vector<Span> first_trace;
  std::vector<double> offer_ns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t trace_dropped = 0;
  std::vector<std::string> problems;
  RepResult reference;
  SpanRecorder recorder;
  const std::int64_t begin = NowNs();
  int reps = 0;
  while (reps < min_reps || NowNs() - begin < budget_ns) {
    const auto kind = args.trace ? static_cast<RepKind>(reps % 3) : RepKind::kPlain;
    RepOptions opts;
    opts.self_profile = kind != RepKind::kNoSelfProfile;
    opts.spans = kind == RepKind::kTraced ? &recorder : nullptr;
    opts.corrupt = args.corrupt && reps == 1;
    recorder.set_rep(reps);
    RepResult r = workload->Run(opts);

    attempted += r.attempted;
    failed += r.failed;
    for (std::string& p : r.problems) {
      problems.push_back("rep " + std::to_string(reps) + ": " + std::move(p));
    }
    // Every repetition sees the same inputs, so outputs and virtual times
    // must repeat exactly; each job whose digest differs counts as failed.
    if (reps == 0) {
      reference = r;
    } else {
      const std::size_t n = std::max(r.digests.size(), reference.digests.size());
      std::uint64_t diverged = 0;
      for (std::size_t i = 0; i < n; ++i) {
        diverged += i >= r.digests.size() || i >= reference.digests.size() ||
                            r.digests[i] != reference.digests[i]
                        ? 1
                        : 0;
      }
      if (diverged > 0) {
        failed += diverged;
        problems.push_back("rep " + std::to_string(reps) + ": " + std::to_string(diverged) +
                           " job(s) differ from repetition 0");
      }
    }
    const int k = static_cast<int>(kind);
    if (kind == RepKind::kPlain) {
      setup_s.push_back(r.setup_ns / 1e9);
      admit.push_back(r.admit_ns / PerTaskBase(r.tasks_admitted));
    }
    run[k].push_back(r.run_ns / PerTaskBase(r.tasks_executed));
    wall[k].push_back(r.wall_ns);
    trace_dropped = std::max(trace_dropped, r.layer.trace_dropped);
    if (kind == RepKind::kTraced) {
      std::vector<Span> spans = recorder.Take();
      traced_sums.push_back(Summarize(spans));
      for (SpanTotal& t : TotalsByName(spans)) {
        SpanTotal& sum = span_totals[t.name];
        sum.calls += t.calls;
        sum.total_ns += t.total_ns;
        sum.self_ns += t.self_ns;
      }
      if (first_trace.empty()) {
        first_trace = std::move(spans);
      }
      offer_ns.insert(offer_ns.end(), r.layer.offer_ns.begin(), r.layer.offer_ns.end());
      r.layer.offer_ns.clear();
      r.digests.clear();
      traced_reps.push_back(std::move(r));
    }
    ++reps;
  }
  const double tasks_per_rep = static_cast<double>(reference.tasks_executed);
  for (const std::string& p : problems) {
    std::fprintf(stderr, "check failed: %s\n", p.c_str());
  }
  const bool correct = failed == 0 && problems.empty();

  std::vector<Metric> metrics;
  if (!args.trace) {
    const RepResult& v = reference;  // virtual-time results repeat exactly
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mib", PeakRssKib() / 1024.0, "MiB"},
        {"admit_ns_per_task", Median(admit), "ns"},
        {"run_ns_per_task", Median(run[0]), "ns"},
        {"wall_ms", Median(wall[0]) / 1e6, "ms"},
        {"virt_makespan_ms", v.virt_makespan_ms, "ms"},
        {"p50_us", v.p50_us, "us"},
        {"p99_us", v.p99_us, "us"},
        {"goodput_per_s", v.goodput_per_s, "1/s"},
    };
    std::fprintf(stderr, "%s: %d repetitions, %.0f tasks each\n", args.workload.c_str(), reps,
                 tasks_per_rep);
  } else {
    // --- traced run: probes, spans, counters ---------------------------------------
    SpanRecorder probe_spans;
    std::unique_ptr<simhw::Cluster> probe_cluster = workload->ProbeCluster();
    const ProbeResults p = RunProbes(workload->ProbeJobs(), *probe_cluster, probe_spans);

    std::vector<TracedRep> derived;
    for (std::size_t i = 0; i < traced_reps.size(); ++i) {
      derived.push_back(Derive(traced_reps[i], traced_sums[i], p));
    }
    const auto med = [&](double TracedRep::*field) {
      std::vector<double> v;
      for (const TracedRep& t : derived) {
        v.push_back(t.*field);
      }
      return Median(v);
    };
    PrintLayerTable(span_totals, static_cast<int>(traced_reps.size()), tasks_per_rep);

    const LayerCounters& c = traced_reps.front().layer;  // deterministic counts
    const double tasks = std::max(tasks_per_rep, 1.0);
    const double memo_total = static_cast<double>(c.memo_hits + c.memo_misses);
    const double handovers =
        static_cast<double>(c.stats.zero_copy_handovers + c.stats.copied_handovers);
    const double offered = static_cast<double>(reference.layer.offered);
    const double body = med(&TracedRep::body);
    const double body_region = med(&TracedRep::body_region_est);
    const double mib = 1024.0 * 1024.0;
    const double selfprof_off = Median(run[2]);
    const double untraced_wall = Median(wall[0]);
    metrics = {
        {"dataflow.validate_ns_per_task", p.validate_ns_per_task, "ns"},
        {"analysis.verify_ns_per_task", p.verify_ns_per_task, "ns"},
        {"rts.admission_verify_ns_per_task", med(&TracedRep::verify), "ns"},
        {"rts.place_ns_per_task", p.place_ns_per_task, "ns"},
        {"rts.placement_score_ns_per_task", med(&TracedRep::place), "ns"},
        {"rts.estimate_miss_ns", p.estimate_miss_ns, "ns"},
        {"rts.estimate_hit_ns", p.estimate_hit_ns, "ns"},
        {"rts.estimate_memo_hit_ratio", Ratio(static_cast<double>(c.memo_hits), memo_total),
         "ratio"},
        {"rts.estimate_memo_hits", static_cast<double>(c.memo_hits), "count"},
        {"rts.estimate_memo_misses", static_cast<double>(c.memo_misses), "count"},
        {"simhw.view_ns", p.view_ns, "ns"},
        {"rts.admit_self_ns_per_task", med(&TracedRep::admit_self), "ns"},
        {"rts.body_ns_per_task", body, "ns"},
        {"rts.body_region_est_ns_per_task", body_region, "ns"},
        {"rts.body_other_ns_per_task", std::max(0.0, body - body_region), "ns"},
        {"rts.dispatch_self_ns_per_task", med(&TracedRep::dispatch_self), "ns"},
        {"rts.event_drain_excl_ns_per_task", med(&TracedRep::event_drain), "ns"},
        {"rts.stage_excl_ns_per_task", med(&TracedRep::stage), "ns"},
        {"rts.batch_commit_excl_ns_per_task", med(&TracedRep::commit), "ns"},
        {"rts.batch_tasks_mean", med(&TracedRep::batch_tasks), "count"},
        {"rts.tasks_executed", tasks_per_rep, "count"},
        {"rts.zero_copy_ratio", Ratio(static_cast<double>(c.stats.zero_copy_handovers), handovers),
         "ratio"},
        {"rts.zero_copy_handovers", static_cast<double>(c.stats.zero_copy_handovers), "count"},
        {"rts.copied_handovers", static_cast<double>(c.stats.copied_handovers), "count"},
        {"rts.retries", static_cast<double>(c.stats.task_retries), "count"},
        {"region.alloc_free_ns", p.alloc_free_ns, "ns"},
        {"region.alloc_touch_free_ns", p.alloc_touch_free_ns, "ns"},
        {"region.sync_read_ns_4k", p.sync_read_ns_4k, "ns"},
        {"region.sync_read_ns_1m", p.sync_read_ns_1m, "ns"},
        {"region.sync_write_ns_4k", p.sync_write_ns_4k, "ns"},
        {"region.sync_write_ns_1m", p.sync_write_ns_1m, "ns"},
        {"region.async_drain_ns_4k", p.async_drain_ns_4k, "ns"},
        {"region.async_drain_ns_1m", p.async_drain_ns_1m, "ns"},
        {"region.keystream_ns_per_kib", p.keystream_ns_per_kib, "ns"},
        {"region.bytes_read_mib.private_scratch", static_cast<double>(c.bytes_read[0]) / mib,
         "MiB"},
        {"region.bytes_read_mib.global_state", static_cast<double>(c.bytes_read[1]) / mib, "MiB"},
        {"region.bytes_read_mib.global_scratch", static_cast<double>(c.bytes_read[2]) / mib,
         "MiB"},
        {"region.bytes_written_mib.private_scratch", static_cast<double>(c.bytes_written[0]) / mib,
         "MiB"},
        {"region.bytes_written_mib.global_state", static_cast<double>(c.bytes_written[1]) / mib,
         "MiB"},
        {"region.bytes_written_mib.global_scratch", static_cast<double>(c.bytes_written[2]) / mib,
         "MiB"},
        {"region.bytes_read_mib.other", static_cast<double>(c.bytes_read[3]) / mib, "MiB"},
        {"region.bytes_written_mib.other", static_cast<double>(c.bytes_written[3]) / mib, "MiB"},
        {"region.accesses_per_task", static_cast<double>(c.region_accesses) / tasks, "count"},
        {"region.allocations_per_task", static_cast<double>(c.region_allocations) / tasks, "count"},
        {"region.transfers_per_task", static_cast<double>(c.region_transfers) / tasks, "count"},
        {"region.migrations", static_cast<double>(c.region_migrations), "count"},
        {"rts.serving.offered", offered, "count"},
        {"rts.serving.offer_ns_p50", Quantile(offer_ns, 0.50), "ns"},
        {"rts.serving.offer_ns_p99", Quantile(offer_ns, 0.99), "ns"},
        {"rts.serving.refused_ratio.serve-reject-quota",
         Ratio(static_cast<double>(reference.layer.refused[0]), offered), "ratio"},
        {"rts.serving.refused_ratio.serve-reject-slo",
         Ratio(static_cast<double>(reference.layer.refused[1]), offered), "ratio"},
        {"rts.serving.refused_ratio.serve-reject-infeasible",
         Ratio(static_cast<double>(reference.layer.refused[2]), offered), "ratio"},
        {"rts.serving.refused_ratio.serve-shed-backpressure",
         Ratio(static_cast<double>(reference.layer.refused[3]), offered), "ratio"},
        {"rts.serving.predict_err_us_p99", Quantile(reference.layer.predict_err_us, 0.99), "us"},
        {"rts.retained_kib_per_job",
         Ratio(reference.rss_quiescent_kib - reference.rss_after_setup_kib,
               static_cast<double>(reference.jobs_served)),
         "KiB"},
        {"telemetry.selfprof_overhead_pct", 100.0 * Ratio(Median(run[0]) - selfprof_off,
                                                          selfprof_off),
         "%"},
        {"telemetry.trace_dropped", static_cast<double>(trace_dropped), "count"},
        {"telemetry.trace_overhead_pct",
         100.0 * Ratio(Median(wall[1]) - untraced_wall, untraced_wall), "%"},
        {"telemetry.identity_residual_pct", med(&TracedRep::residual_pct), "%"},
    };
    std::printf("\nper-layer metrics (ns/task unless named)\n");
    for (const Metric& m : metrics) {
      std::printf("  %-48s %16.3f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }

    if (!args.trace_out.empty()) {
      const int offset = static_cast<int>(first_trace.size());
      for (Span s : probe_spans.Take()) {
        s.parent = s.parent >= 0 ? s.parent + offset : -1;
        first_trace.push_back(s);
      }
      if (WriteChromeTrace(args.trace_out, first_trace, args.workload)) {
        std::printf("\nchrome trace: %s (%zu spans)\n", args.trace_out.c_str(), first_trace.size());
      } else {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      }
    }
  }
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace memflow::perfbench

int main(int argc, char** argv) { return memflow::perfbench::Main(argc, argv); }
