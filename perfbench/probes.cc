// Copyright (c) memflow authors. MIT license.

#include "probes.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string_view>

#include "analysis/verifier.h"
#include "region/crypto.h"
#include "region/region_manager.h"
#include "rts/cost_model.h"
#include "rts/placement.h"
#include "telemetry/metrics.h"
#include "workloads.h"

namespace memflow::perfbench {
namespace {

// Keeps probe results observable so the calls cannot be optimized away.
std::atomic<std::uint64_t> g_sink{0};

// Runs `pass` (which performs `ops` operations) at least 7 times and for at
// least 20 ms; returns the median ns per operation and records one span.
template <typename Pass>
double NsPerOp(SpanRecorder& spans, int root, std::string_view name, double ops, Pass&& pass) {
  constexpr std::int64_t kMinNs = 20'000'000;
  std::vector<double> samples;
  const std::int64_t begin = NowNs();
  while (samples.size() < 7 || (NowNs() - begin < kMinNs && samples.size() < 10000)) {
    const std::int64_t start = NowNs();
    pass();
    samples.push_back(static_cast<double>(NowNs() - start) / ops);
  }
  spans.Add(name, begin, NowNs(), root);
  return Median(std::move(samples));
}

// One task with the admission-time input-size estimate Runtime::Plan uses.
struct PlannedTask {
  const dataflow::Job* job;
  dataflow::TaskId task;
  std::uint64_t input_bytes;
};

std::vector<PlannedTask> PlanInputs(const std::vector<dataflow::Job>& jobs) {
  std::vector<PlannedTask> out;
  for (const dataflow::Job& job : jobs) {
    std::vector<std::uint64_t> est(job.num_tasks(), 0);
    for (const dataflow::TaskId t : job.TopologicalOrder()) {
      for (const dataflow::TaskId p : job.DataPredecessors(t)) {
        est[t.value] += rts::CostModel::OutputBytes(job.task(p).props, est[p.value]);
      }
      out.push_back({&job, t, est[t.value]});
    }
  }
  return out;
}

void ProbeRegion(simhw::Cluster& cluster, SpanRecorder& spans, int root, ProbeResults& out) {
  telemetry::Registry registry;
  region::RegionManager mgr(cluster, {}, 0x5eedULL, &registry);
  const region::Principal owner{1, 1};
  const simhw::ComputeDeviceId cpu = FirstCpu(cluster);
  constexpr std::uint64_t kSmall = 4096;
  constexpr std::uint64_t kBig = 1 << 20;
  region::RegionManager::AllocRequest req;
  req.size = kSmall;
  req.props = region::Properties::PrivateScratch();
  req.observer = cpu;
  req.owner = owner;

  constexpr int kAllocs = 256;
  out.alloc_free_ns = NsPerOp(spans, root, "region.alloc_free", kAllocs, [&] {
    for (int i = 0; i < kAllocs; ++i) {
      Result<region::RegionId> id = mgr.Allocate(req);
      MEMFLOW_CHECK(id.ok());
      MEMFLOW_CHECK(mgr.Free(*id, owner).ok());
    }
  });

  // The first write to a region backs it with device memory; bodies write
  // every region they allocate, so this is the allocation cost they see.
  out.alloc_touch_free_ns = NsPerOp(spans, root, "region.alloc_touch_free", kAllocs, [&] {
    const std::uint64_t word = 42;
    for (int i = 0; i < kAllocs; ++i) {
      Result<region::RegionId> id = mgr.Allocate(req);
      MEMFLOW_CHECK(id.ok());
      Result<region::AsyncAccessor> acc = mgr.OpenAsync(*id, owner, cpu);
      MEMFLOW_CHECK(acc.ok());
      acc->EnqueueWrite(0, &word, sizeof(word));
      g_sink += static_cast<std::uint64_t>(acc->Drain()->ns);
      MEMFLOW_CHECK(mgr.Free(*id, owner).ok());
    }
  });

  req.size = kBig;
  Result<region::RegionId> big = mgr.Allocate(req);
  MEMFLOW_CHECK(big.ok());
  Result<region::SyncAccessor> sync = mgr.OpenSync(*big, owner, cpu);
  Result<region::AsyncAccessor> async = mgr.OpenAsync(*big, owner, cpu);
  MEMFLOW_CHECK(sync.ok() && async.ok());
  std::vector<std::uint8_t> buf(kBig, 0x5a);
  constexpr int kSmallOps = static_cast<int>(kBig / kSmall);
  const auto sync_small = [&](bool write) {
    for (int i = 0; i < kSmallOps; ++i) {
      const std::uint64_t off = static_cast<std::uint64_t>(i) * kSmall;
      Result<SimDuration> c = write ? sync->Write(off, buf.data() + off, kSmall)
                                    : sync->Read(off, buf.data() + off, kSmall);
      g_sink += static_cast<std::uint64_t>(c->ns);
    }
  };
  out.sync_write_ns_4k = NsPerOp(spans, root, "region.sync_write_4k", kSmallOps,
                                 [&] { sync_small(true); });
  out.sync_read_ns_4k = NsPerOp(spans, root, "region.sync_read_4k", kSmallOps,
                                [&] { sync_small(false); });
  out.sync_write_ns_1m = NsPerOp(spans, root, "region.sync_write_1m", 1, [&] {
    g_sink += static_cast<std::uint64_t>(sync->Write(0, buf.data(), kBig)->ns);
  });
  out.sync_read_ns_1m = NsPerOp(spans, root, "region.sync_read_1m", 1, [&] {
    g_sink += static_cast<std::uint64_t>(sync->Read(0, buf.data(), kBig)->ns);
  });
  out.async_drain_ns_4k = NsPerOp(spans, root, "region.async_drain_4k", kSmallOps, [&] {
    for (int i = 0; i < kSmallOps; ++i) {
      const std::uint64_t off = static_cast<std::uint64_t>(i) * kSmall;
      async->EnqueueRead(off, buf.data() + off, kSmall);
      g_sink += static_cast<std::uint64_t>(async->Drain()->ns);
    }
  });
  out.async_drain_ns_1m = NsPerOp(spans, root, "region.async_drain_1m", 1, [&] {
    async->EnqueueRead(0, buf.data(), kBig);
    g_sink += static_cast<std::uint64_t>(async->Drain()->ns);
  });
  out.keystream_ns_per_kib = NsPerOp(spans, root, "region.keystream", kBig / 1024.0, [&] {
    region::ApplyKeystream(0x1234abcdULL, 0, buf.data(), kBig);
    g_sink += buf[0];
  });
  MEMFLOW_CHECK(mgr.Free(*big, owner).ok());
}

}  // namespace

ProbeResults RunProbes(const std::vector<dataflow::Job>& jobs, simhw::Cluster& cluster,
                       SpanRecorder& spans) {
  ProbeResults out;
  const int root = spans.Open("probes", -1);
  const std::vector<PlannedTask> tasks = PlanInputs(jobs);
  const double n = static_cast<double>(std::max<std::size_t>(tasks.size(), 1));

  out.validate_ns_per_task = NsPerOp(spans, root, "dataflow.validate", n, [&] {
    for (const dataflow::Job& job : jobs) {
      g_sink += job.Validate().ok() ? 1 : 0;
    }
  });
  out.verify_ns_per_task = NsPerOp(spans, root, "analysis.verify", n, [&] {
    for (const dataflow::Job& job : jobs) {
      g_sink += static_cast<std::uint64_t>(analysis::Verify(job, &cluster).errors());
    }
  });

  telemetry::Registry registry;
  std::unique_ptr<rts::PlacementPolicy> policy =
      rts::MakePlacementPolicy(rts::PlacementPolicyKind::kCostModel, 42, &registry);
  const rts::CostModel model(cluster);
  out.place_ns_per_task = NsPerOp(spans, root, "rts.place", n, [&] {
    for (const PlannedTask& t : tasks) {
      g_sink += policy->Place(*t.job, t.task, t.input_bytes, cluster, model).ok() ? 1 : 0;
    }
  });

  const std::vector<simhw::ComputeDeviceId> compute = cluster.AllComputeDevices();
  const double estimates = n * static_cast<double>(compute.size());
  const auto estimate_all = [&](const rts::CostModel& m) {
    for (const PlannedTask& t : tasks) {
      for (const simhw::ComputeDeviceId c : compute) {
        g_sink += m.Estimate(t.job->task(t.task).props, t.input_bytes, c).ok() ? 1 : 0;
      }
    }
  };
  out.estimate_miss_ns =
      NsPerOp(spans, root, "rts.estimate_miss", estimates, [&] { estimate_all(model); });
  // A churn counter that never moves keeps the memo valid: after one warm
  // pass every lookup hits.
  const std::atomic<std::uint64_t> churn{0};
  rts::CostModel memo_model(cluster);
  memo_model.BindInvalidationCounter(&churn);
  estimate_all(memo_model);
  out.estimate_hit_ns =
      NsPerOp(spans, root, "rts.estimate_hit", estimates, [&] { estimate_all(memo_model); });

  const std::vector<simhw::MemoryDeviceId> memory = cluster.AllMemoryDevices();
  out.view_ns = NsPerOp(spans, root, "simhw.view",
                        static_cast<double>(compute.size() * memory.size()), [&] {
                          for (const simhw::ComputeDeviceId c : compute) {
                            for (const simhw::MemoryDeviceId m : memory) {
                              g_sink += cluster.View(c, m).ok() ? 1 : 0;
                            }
                          }
                        });

  ProbeRegion(cluster, spans, root, out);
  spans.Close(root);
  return out;
}

}  // namespace memflow::perfbench
