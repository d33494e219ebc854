// Copyright (c) memflow authors. MIT license.

#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>

#include "apps/dbms.h"
#include "apps/hospital.h"
#include "common/hash.h"
#include "common/rng.h"
#include "dataflow/context.h"
#include "rts/serving.h"
#include "simhw/presets.h"
#include "testing/arrivals.h"
#include "testing/workload.h"

namespace memflow::perfbench {
namespace {

using dataflow::Job;
using dataflow::JobId;

// Whole-region read through the job's principal (sink outputs outlive the
// job; see JobReport::outputs).
Result<std::vector<std::uint8_t>> ReadRegion(rts::Runtime& rt, JobId job, region::RegionId id,
                                             simhw::ComputeDeviceId observer) {
  MEMFLOW_ASSIGN_OR_RETURN(region::AsyncAccessor acc,
                           rt.regions().OpenAsync(id, rt.JobPrincipal(job), observer));
  std::vector<std::uint8_t> bytes(acc.size());
  if (!bytes.empty()) {
    acc.EnqueueRead(0, bytes.data(), bytes.size());
    MEMFLOW_RETURN_IF_ERROR(acc.Drain().status());
  }
  return bytes;
}

// The self-test's deliberate corruption: overwrite the first word of an
// output region, as a buggy runtime would.
void CorruptRegion(rts::Runtime& rt, JobId job, region::RegionId id,
                   simhw::ComputeDeviceId observer) {
  auto acc = rt.regions().OpenAsync(id, rt.JobPrincipal(job), observer);
  MEMFLOW_CHECK(acc.ok());
  const std::uint64_t garbage = 0xdeadbeefdeadbeefULL;
  acc->EnqueueWrite(0, &garbage, std::min<std::uint64_t>(acc->size(), sizeof(garbage)));
  MEMFLOW_CHECK(acc->Drain().ok());
}

std::uint64_t DigestBytes(std::uint64_t seed, const std::vector<std::uint8_t>& bytes) {
  return HashCombine(seed, Fnv1a64(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

// Traced repetitions wrap every task body in a span whose parent is the
// RunToCompletion span open at the time.
void TraceBodies(Job& job, SpanRecorder* spans) {
  for (std::uint32_t t = 0; t < job.num_tasks(); ++t) {
    dataflow::TaskSpec& spec = job.task(dataflow::TaskId(t));
    spec.fn = [inner = std::move(spec.fn), spans](dataflow::TaskContext& ctx) {
      const ScopedSpan span(spans, "rts.body", spans->run_parent());
      return inner(ctx);
    };
  }
}

rts::RuntimeOptions OptionsFor(const RepOptions& opts, int workers,
                               telemetry::Registry* registry) {
  rts::RuntimeOptions ro;  // defaults: verifier enforced, cost-model placement
  ro.worker_threads = workers;
  ro.self_profile = opts.self_profile;
  ro.registry = registry;  // per repetition, so repetitions do not accumulate
  return ro;
}

// Adds the runtime's counters to `out` (a repetition may run several
// runtimes one after another).
void CollectCounters(rts::Runtime& rt, bool traced, LayerCounters& out) {
  const rts::RuntimeStats& st = rt.stats();
  out.stats.task_retries += st.task_retries;
  out.stats.zero_copy_handovers += st.zero_copy_handovers;
  out.stats.copied_handovers += st.copied_handovers;
  if (rt.self_profiler().enabled()) {
    out.profile = rt.self_profiler().Report();  // cumulative when shared
  }
  out.memo_hits += rt.cost_model().memo_hits();
  out.memo_misses += rt.cost_model().memo_misses();
  out.trace_dropped += rt.tracer().dropped();
  const region::ManagerStats& ms = rt.regions().stats();
  out.region_allocations += ms.allocations;
  out.region_transfers += ms.transfers;
  out.region_migrations += ms.migrations;
  for (int c = 0; c < 4; ++c) {
    out.bytes_read[c] += ms.bytes_read_by_class[c].load();
    out.bytes_written[c] += ms.bytes_written_by_class[c].load();
  }
  if (traced) {
    for (const telemetry::RegionAccessStats& s : rt.regions().access_profiler().RegionStats()) {
      out.region_accesses += s.accesses;
    }
  }
}

// Submits `jobs` in order (timed one by one), then runs to quiescence.
// Returns the admitted ids in submission order.
std::vector<JobId> SubmitAndRun(rts::Runtime& rt, std::vector<Job> jobs, const RepOptions& opts,
                                RepResult& r) {
  SpanRecorder* spans = opts.spans;
  std::vector<JobId> ids;
  const std::int64_t first = NowNs();
  const int rep_span = spans != nullptr ? spans->Open("rep", -1) : -1;
  for (Job& job : jobs) {
    const std::uint64_t tasks = job.num_tasks();
    const std::string name = job.name();
    const std::int64_t start = NowNs();
    Result<JobId> id = rt.Submit(std::move(job));
    const std::int64_t end = NowNs();
    r.admit_ns += static_cast<double>(end - start);
    if (spans != nullptr) {
      spans->Add("rts.submit", start, end, rep_span);
    }
    r.attempted++;
    if (!id.ok()) {
      r.failed++;
      r.problems.push_back("job " + name + " refused: " + id.status().ToString());
      continue;
    }
    ids.push_back(*id);
    r.tasks_admitted += tasks;
  }
  const int run_span = spans != nullptr ? spans->Open("rts.run", rep_span) : -1;
  if (spans != nullptr) {
    spans->set_run_parent(run_span);
  }
  const std::int64_t run_start = NowNs();
  const Status st = rt.RunToCompletion();
  const std::int64_t run_end = NowNs();
  if (spans != nullptr) {
    spans->Close(run_span);
    spans->Close(rep_span);
  }
  r.run_ns += static_cast<double>(run_end - run_start);
  r.wall_ns += static_cast<double>(run_end - first);
  if (!st.ok()) {
    r.problems.push_back("RunToCompletion: " + st.ToString());
  }
  return ids;
}

// Virtual-time results of closed batches (every job submitted at t=0),
// accumulated over the runtimes of one repetition: makespan and goodput
// (jobs that ended OK per virtual second) are medians over batches, so one
// unlucky schedule does not swing them; latency quantiles pool every job.
class BatchVirtual {
 public:
  void Add(rts::Runtime& rt, const std::vector<JobId>& ids) {
    SimTime last;
    std::uint64_t ok = 0;
    for (const JobId id : ids) {
      const rts::JobReport& rep = rt.report(id);
      last = std::max(last, rep.finished);
      latency_us_.push_back(rep.Makespan().ToMicros());
      ok += rep.status.ok() ? 1 : 0;
    }
    const SimDuration makespan = last - SimTime{};
    makespan_ms_.push_back(makespan.ToMillis());
    goodput_.push_back(makespan.ns > 0 ? static_cast<double>(ok) / makespan.ToSeconds() : 0);
  }

  void Finish(RepResult& r) const {
    r.virt_makespan_ms = Median(makespan_ms_);
    r.p50_us = Quantile(latency_us_, 0.50);
    r.p99_us = Quantile(latency_us_, 0.99);
    r.goodput_per_s = Median(goodput_);
  }

 private:
  std::vector<double> makespan_ms_;
  std::vector<double> goodput_;
  std::vector<double> latency_us_;
};

// --- dag-mix ----------------------------------------------------------------------

class DagMix final : public Workload {
 public:
  DagMix(std::uint64_t seed, Size size)
      : seed_(seed),
        bursts_(size == Size::kTiny ? 2 : kBursts),
        jobs_per_burst_(size == Size::kTiny ? 4 : kJobsPerBurst) {}

  int workers() const override { return 1; }

  // Each burst runs on a fresh pool and runtime, so peak memory stays at one
  // burst's while the repetition averages over many independent DAGs.
  RepResult Run(const RepOptions& opts) override {
    RepResult r;
    BatchVirtual virt;
    telemetry::SelfProfiler profiler(opts.self_profile);  // shared by the bursts
    for (int b = 0; b < bursts_; ++b) {
      const std::int64_t t0 = NowNs();
      telemetry::Registry registry;
      std::unique_ptr<simhw::Cluster> cluster = simhw::MakeMemoryCentricPool();
      rts::RuntimeOptions ro = OptionsFor(opts, workers(), &registry);
      ro.profiler = &profiler;
      rts::Runtime rt(*cluster, ro);
      std::vector<Job> jobs = BuildJobs(b);
      if (opts.spans != nullptr) {
        for (Job& job : jobs) {
          TraceBodies(job, opts.spans);
        }
      }
      r.setup_ns += static_cast<double>(NowNs() - t0);
      if (b == 0) {
        r.rss_after_setup_kib = RssKib();
      }

      const std::vector<JobId> ids = SubmitAndRun(rt, std::move(jobs), opts, r);
      if (b == 0) {
        r.rss_quiescent_kib = RssKib();
        r.jobs_served = ids.size();
      }
      r.tasks_executed += rt.stats().tasks_executed;
      CollectCounters(rt, opts.spans != nullptr, r.layer);

      // Checks: every job ends OK; its sink bytes and virtual times are
      // digested for the cross-repetition comparison.
      const simhw::ComputeDeviceId reader = FirstCpu(*cluster);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        const rts::JobReport& rep = rt.report(ids[i]);
        if (opts.corrupt && b == 0 && i == 0 && !rep.outputs.empty()) {
          CorruptRegion(rt, ids[i], rep.outputs.front(), reader);
        }
        std::uint64_t digest = HashCombine(rep.submitted.ns, rep.finished.ns);
        bool ok = rep.status.ok();
        for (const region::RegionId out : rep.outputs) {
          Result<std::vector<std::uint8_t>> bytes = ReadRegion(rt, ids[i], out, reader);
          ok = ok && bytes.ok();
          digest = bytes.ok() ? DigestBytes(digest, *bytes) : HashCombine(digest, 0);
        }
        if (!ok) {
          r.failed++;
          r.problems.push_back("job " + rep.name + " failed: " + rep.status.ToString());
        }
        r.digests.push_back(digest);
      }
      virt.Add(rt, ids);
    }
    virt.Finish(r);
    return r;
  }

  std::vector<Job> ProbeJobs() const override {
    std::vector<Job> jobs;
    for (int b = 0; b < bursts_; ++b) {
      for (Job& job : BuildJobs(b)) {
        jobs.push_back(std::move(job));
      }
    }
    return jobs;
  }
  std::unique_ptr<simhw::Cluster> ProbeCluster() const override {
    return simhw::MakeMemoryCentricPool();
  }

 private:
  static constexpr int kBursts = 16;
  static constexpr int kJobsPerBurst = 32;

  // Job sizes are stratified: the jobs of a burst cover 16..64 tasks evenly,
  // so every burst and every seed carries the same amount of DAG; the seed
  // draws everything else (edges, modes, properties, pins, work).
  std::vector<Job> BuildJobs(int burst) const {
    testing::WorkloadOptions w;
    w.available_compute = {simhw::ComputeDeviceKind::kCPU, simhw::ComputeDeviceKind::kGPU,
                           simhw::ComputeDeviceKind::kTPU, simhw::ComputeDeviceKind::kFPGA};
    w.allow_persistent = true;  // the pool has PMem
    Rng rng(HashCombine(seed_, static_cast<std::uint64_t>(burst)));
    std::vector<Job> jobs;
    jobs.reserve(static_cast<std::size_t>(jobs_per_burst_));
    for (int i = 0; i < jobs_per_burst_; ++i) {
      w.min_tasks = w.max_tasks = 16 + 48 * i / std::max(jobs_per_burst_ - 1, 1);
      const std::string name = "dag" + std::to_string(burst) + "." + std::to_string(i);
      jobs.push_back(testing::BuildJob(testing::GenerateJobSpec(rng, w, name)));
    }
    return jobs;
  }

  std::uint64_t seed_;
  int bursts_;
  int jobs_per_burst_;
};

// --- dbms-pipeline ----------------------------------------------------------------

class DbmsPipeline final : public Workload {
 public:
  DbmsPipeline(std::uint64_t seed, Size size) {
    const bool tiny = size == Size::kTiny;
    dim_.rows = 4096;
    dim_.groups = 64;
    dim_.seed = MixU64(seed ^ 0xd1d1);
    // Sizes vary by up to 1% with the seed, so virtual-time results differ
    // between seeds while staying comparable.
    const std::uint64_t jitter = MixU64(seed);
    fact_.rows = (tiny ? 20000 : 2000000) + jitter % (tiny ? 200 : 20000);
    fact_.groups = static_cast<std::uint32_t>(dim_.rows);  // fact.group is a key into dim
    fact_.seed = MixU64(seed ^ 0xfac7);
    scan_.rows = (tiny ? 20000 : 1000000) + (jitter >> 20) % (tiny ? 200 : 10000);
    scan_.groups = 64;
    scan_.seed = MixU64(seed ^ 0x5ca9);
    hospital_.minutes = tiny ? 24 * 60 : 7 * 24 * 60;
    hospital_.seed = MixU64(seed ^ 0x4051);
    // Host-side references, computed once before any timing.
    expected_join_ = apps::dbms::ExpectedJoin(fact_, dim_);
    expected_scan_ = apps::dbms::ExpectedScanAggregate(scan_, kSelectivity);
    expected_hospital_ = apps::hospital::ExpectedHospital(hospital_);
  }

  int workers() const override { return 2; }

  RepResult Run(const RepOptions& opts) override {
    RepResult r;
    const std::int64_t t0 = NowNs();
    telemetry::Registry registry;
    simhw::CxlHostHandles host = simhw::MakeCxlExpansionHost();
    rts::Runtime rt(*host.cluster, OptionsFor(opts, workers(), &registry));
    std::vector<Job> jobs = BuildJobs();
    if (opts.spans != nullptr) {
      for (Job& job : jobs) {
        TraceBodies(job, opts.spans);
      }
    }
    r.setup_ns = static_cast<double>(NowNs() - t0);
    r.rss_after_setup_kib = RssKib();

    const std::vector<JobId> ids = SubmitAndRun(rt, std::move(jobs), opts, r);
    r.rss_quiescent_kib = RssKib();
    r.tasks_executed = rt.stats().tasks_executed;
    r.jobs_served = ids.size();
    CollectCounters(rt, opts.spans != nullptr, r.layer);

    for (const JobId id : ids) {
      const rts::JobReport& rep = rt.report(id);
      if (opts.corrupt && rep.name == "dbms-join" && !rep.outputs.empty()) {
        CorruptRegion(rt, id, rep.outputs.front(), host.cpu);
      }
      std::string problem = rep.status.ok() ? "" : rep.status.ToString();
      std::uint64_t digest = HashCombine(rep.submitted.ns, rep.finished.ns);
      const auto sink = [&](std::string_view task) -> std::vector<std::uint8_t> {
        for (const rts::TaskReport& t : rep.tasks) {
          if (t.name == task && t.output.valid()) {
            Result<std::vector<std::uint8_t>> bytes = ReadRegion(rt, id, t.output, host.cpu);
            if (!bytes.ok()) {
              problem = bytes.status().ToString();
              return {};
            }
            digest = DigestBytes(digest, *bytes);
            return *std::move(bytes);
          }
        }
        return {};
      };
      if (problem.empty() && rep.name == "dbms-join") {
        const std::vector<double> got = As<double>(sink("probe-join"));
        if (got.size() != 1 || !Close(got[0], expected_join_)) {
          problem = "join sum differs from ExpectedJoin";
        }
      } else if (problem.empty() && rep.name == "dbms-scan-agg") {
        const std::vector<double> got = As<double>(sink("hash-aggregate"));
        bool same = got.size() == expected_scan_.size();
        for (std::size_t g = 0; same && g < got.size(); ++g) {
          same = Close(got[g], expected_scan_[g]);
        }
        if (!same) {
          problem = "group sums differ from ExpectedScanAggregate";
        }
      } else if (problem.empty() && rep.name == "hospital") {
        if (As<std::uint64_t>(sink("track-hours")) != expected_hospital_.staff_minutes ||
            As<std::uint32_t>(sink("compute-utilization")) !=
                expected_hospital_.hourly_utilization ||
            As<std::uint32_t>(sink("alert-caregivers")) != expected_hospital_.alerts) {
          problem = "hospital sinks differ from ExpectedHospital";
        }
      }
      if (!problem.empty()) {
        r.failed++;
        r.problems.push_back("job " + rep.name + ": " + problem);
      }
      r.digests.push_back(digest);
    }
    BatchVirtual virt;
    virt.Add(rt, ids);
    virt.Finish(r);
    return r;
  }

  std::vector<Job> ProbeJobs() const override { return BuildJobs(); }
  std::unique_ptr<simhw::Cluster> ProbeCluster() const override {
    return std::move(simhw::MakeCxlExpansionHost().cluster);
  }

 private:
  static constexpr double kSelectivity = 0.25;

  template <typename T>
  static std::vector<T> As(const std::vector<std::uint8_t>& bytes) {
    std::vector<T> out(bytes.size() / sizeof(T));
    std::memcpy(out.data(), bytes.data(), out.size() * sizeof(T));
    return out;
  }

  static bool Close(double got, double want) {
    return std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
  }

  std::vector<Job> BuildJobs() const {
    std::vector<Job> jobs;
    jobs.push_back(apps::dbms::BuildJoinJob(fact_, dim_));
    jobs.push_back(apps::dbms::BuildScanAggregateJob(scan_, kSelectivity));
    jobs.push_back(apps::hospital::BuildHospitalJob(hospital_));
    return jobs;
  }

  apps::dbms::TableSpec fact_;
  apps::dbms::TableSpec dim_;
  apps::dbms::TableSpec scan_;
  apps::hospital::HospitalSpec hospital_;
  double expected_join_ = 0;
  std::vector<double> expected_scan_;
  apps::hospital::HospitalExpectation expected_hospital_;
};

// --- serve-bursty -----------------------------------------------------------------

// ~100 us of virtual service per job: one CPU with 4 hardware queues serves
// ~40K jobs/s.
constexpr double kServeWork = 1e5;

Job ServeJob(std::size_t tenant, std::uint64_t index, double work, SpanRecorder* spans) {
  Job job((tenant == 0 ? "a-" : "b-") + std::to_string(index));
  dataflow::TaskProperties props;
  props.compute_device = simhw::ComputeDeviceKind::kCPU;
  props.base_work = kServeWork;
  job.AddTask("serve", props, [work](dataflow::TaskContext& ctx) {
    ctx.ChargeCompute(work);
    return OkStatus();
  });
  if (spans != nullptr) {
    TraceBodies(job, spans);
  }
  return job;
}

class ServeBursty final : public Workload {
 public:
  ServeBursty(std::uint64_t seed, Size size)
      : seed_(seed),
        horizon_(size == Size::kTiny ? SimDuration::Millis(20) : SimDuration::Millis(2000)) {}

  int workers() const override { return 1; }

  RepResult Run(const RepOptions& opts) override {
    SpanRecorder* spans = opts.spans;
    RepResult r;
    const std::int64_t t0 = NowNs();
    telemetry::Registry registry;
    simhw::CxlHostHandles host = simhw::MakeCxlExpansionHost();
    rts::Runtime rt(*host.cluster, OptionsFor(opts, workers(), &registry));
    rts::ServingLayer serving(rt);
    (void)serving.AddTenant({.name = "a",
                             .weight = 2.0,
                             .deadline = SimDuration::Millis(1),
                             .slo = dataflow::SloClass::kInteractive});
    (void)serving.AddTenant({.name = "b",
                             .weight = 1.0,
                             .deadline = SimDuration::Millis(10),
                             .slo = dataflow::SloClass::kBatch});
    const std::vector<testing::MergedArrival> arrivals =
        testing::MergeArrivals(ArrivalSpecs(), seed_, SimTime{} + horizon_);
    // Dense by JobId::value (ids start at 1, one per admitted job).
    std::vector<SimTime> predicted(arrivals.size() + 1);
    const std::size_t corrupt_index = opts.corrupt ? arrivals.size() / 2 : arrivals.size();
    double callback_ns = 0;
    for (std::size_t k = 0; k < arrivals.size(); ++k) {
      const testing::MergedArrival a = arrivals[k];
      rt.ScheduleAt(a.at, [&, a, k](SimTime) {
        const std::int64_t cb_start = NowNs();
        const int cb_span = spans != nullptr ? spans->Open("bench.arrival", spans->run_parent())
                                             : -1;
        Job job = ServeJob(a.tenant, k, k == corrupt_index ? 2 * kServeWork : kServeWork, spans);
        const std::int64_t start = NowNs();
        const rts::AdmissionDecision d = serving.Offer(a.tenant, std::move(job));
        const std::int64_t end = NowNs();
        r.admit_ns += static_cast<double>(end - start);
        if (d.admitted) {
          r.tasks_admitted++;
          predicted[d.job.value] = d.predicted_finish;
        }
        if (spans != nullptr) {
          spans->Add("rts.serving.offer", start, end, cb_span);
          spans->Close(cb_span);
          r.layer.offer_ns.push_back(static_cast<double>(end - start));
        }
        callback_ns += static_cast<double>(NowNs() - cb_start);
      });
    }
    r.setup_ns = static_cast<double>(NowNs() - t0);
    r.rss_after_setup_kib = RssKib();

    const int rep_span = spans != nullptr ? spans->Open("rep", -1) : -1;
    const int run_span = spans != nullptr ? spans->Open("rts.run", rep_span) : -1;
    if (spans != nullptr) {
      spans->set_run_parent(run_span);
    }
    const std::int64_t run_start = NowNs();
    const Status st = rt.RunToCompletion();
    const std::int64_t run_end = NowNs();
    if (spans != nullptr) {
      spans->Close(run_span);
      spans->Close(rep_span);
    }
    // The arrival callbacks are the benchmark's own load generator: their
    // time, minus the Offer calls inside them, is not the runtime's.
    r.run_ns = static_cast<double>(run_end - run_start) - callback_ns;
    r.wall_ns = r.run_ns + r.admit_ns;
    r.rss_quiescent_kib = RssKib();
    if (!st.ok()) {
      r.problems.push_back("RunToCompletion: " + st.ToString());
    }
    r.tasks_executed = rt.stats().tasks_executed;
    CollectCounters(rt, spans != nullptr, r.layer);

    // Checks: admission accounting balances per tenant; the served-job log
    // (per-job digests) must repeat across repetitions.
    for (std::size_t t = 0; t < serving.num_tenants(); ++t) {
      const rts::TenantStats& s = serving.stats(t);
      r.attempted += s.arrived;
      r.layer.offered += s.arrived;
      r.layer.refused[0] += s.rejected_quota;
      r.layer.refused[1] += s.rejected_slo;
      r.layer.refused[2] += s.rejected_infeasible;
      r.layer.refused[3] += s.shed;
      if (s.admitted != s.completed + s.failed || s.arrived != s.admitted + s.Rejections()) {
        r.failed++;
        r.problems.push_back("tenant " + serving.config(t).name + " accounting does not balance");
      }
    }
    std::vector<double> latency_a_us;
    SimTime last;
    std::uint64_t on_time = 0;
    for (const rts::ServedJob& sj : serving.served()) {
      r.digests.push_back(HashCombine(
          HashCombine(HashCombine(HashCombine(sj.job.value, sj.tenant), sj.arrival.ns),
                      sj.finished.ns),
          sj.ok ? 1 : 0));
      if (!sj.ok) {
        r.failed++;
        r.problems.push_back("served job " + std::to_string(sj.job.value) + " failed");
        continue;
      }
      last = std::max(last, sj.finished);
      const SimDuration latency = sj.finished - sj.arrival;
      if (sj.tenant == 0) {
        latency_a_us.push_back(latency.ToMicros());
      }
      on_time += latency <= sj.deadline ? 1 : 0;
      const SimTime p = predicted[sj.job.value];
      if (p.ns != 0) {
        r.layer.predict_err_us.push_back(std::abs(static_cast<double>(sj.finished.ns - p.ns)) /
                                         1e3);
      }
    }
    r.jobs_served = serving.served().size();
    r.virt_makespan_ms = (last - SimTime{}).ToMillis();
    r.p50_us = Quantile(latency_a_us, 0.50);
    r.p99_us = Quantile(latency_a_us, 0.99);
    const double secs = (last - SimTime{}).ToSeconds();
    r.goodput_per_s = secs > 0 ? static_cast<double>(on_time) / secs : 0;
    return r;
  }

  std::vector<Job> ProbeJobs() const override {
    std::vector<Job> jobs;
    for (std::uint64_t k = 0; k < 256; ++k) {
      jobs.push_back(ServeJob(k % 2, k, kServeWork, nullptr));
    }
    return jobs;
  }
  std::unique_ptr<simhw::Cluster> ProbeCluster() const override {
    return std::move(simhw::MakeCxlExpansionHost().cluster);
  }

 private:
  // Tenant a: interactive, Poisson 12K/s. Tenant b: batch, MMPP-2 with a
  // calm rate of 8.33K/s and 8x bursts (mean 2 ms calm, 0.5 ms burst), i.e.
  // 20K/s on average. Together ~80% of the ~40K/s capacity, with bursts of
  // ~79K/s far above it.
  static std::vector<testing::ArrivalSpec> ArrivalSpecs() {
    std::vector<testing::ArrivalSpec> specs(2);
    specs[0].kind = testing::ArrivalKind::kPoisson;
    specs[0].rate_per_sec = 12000;
    specs[1].kind = testing::ArrivalKind::kBursty;
    specs[1].rate_per_sec = 20000.0 / 2.4;
    specs[1].burst_multiplier = 8.0;
    specs[1].mean_calm = SimDuration::Millis(2);
    specs[1].mean_burst = SimDuration::Micros(500);
    return specs;
  }

  std::uint64_t seed_;
  SimDuration horizon_;
};

double ReadStatusKib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtod(line.c_str() + len, nullptr);
    }
  }
  return 0;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed, Size size) {
  if (name == "dag-mix") {
    return std::make_unique<DagMix>(seed, size);
  }
  if (name == "dbms-pipeline") {
    return std::make_unique<DbmsPipeline>(seed, size);
  }
  if (name == "serve-bursty") {
    return std::make_unique<ServeBursty>(seed, size);
  }
  return nullptr;
}

double RssKib() { return ReadStatusKib("VmRSS:"); }
double PeakRssKib() { return ReadStatusKib("VmHWM:"); }

double Median(std::vector<double> sample) {
  if (sample.empty()) {
    return 0;
  }
  std::sort(sample.begin(), sample.end());
  const std::size_t n = sample.size();
  return n % 2 == 1 ? sample[n / 2] : (sample[n / 2 - 1] + sample[n / 2]) / 2;
}

double Quantile(std::vector<double> sample, double p) {
  if (sample.empty()) {
    return 0;
  }
  std::sort(sample.begin(), sample.end());
  const double rank = p * static_cast<double>(sample.size() - 1);
  return sample[static_cast<std::size_t>(rank + 0.5)];
}

simhw::ComputeDeviceId FirstCpu(const simhw::Cluster& cluster) {
  for (const simhw::ComputeDeviceId c : cluster.AllComputeDevices()) {
    if (cluster.compute(c).kind() == simhw::ComputeDeviceKind::kCPU) {
      return c;
    }
  }
  return {};
}

}  // namespace memflow::perfbench
