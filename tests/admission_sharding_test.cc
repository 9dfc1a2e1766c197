// Sharded fabric commit (docs/CONCURRENCY.md "Sharded fabric commit"):
// ShardMap partition invariants, scoped epoch invalidation on
// commit/release/fault, partial snapshot re-capture fidelity, and — the
// tentpole guarantee — bit-identical-to-serial decisions for ANY
// (shard count, worker count), including cross-window pipelining and
// mid-run faults.
//
// Every fixture name contains "Pipeline" so the TSan CI job selects this
// file with the same -R regex as the pipeline tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "net/shard_map.h"
#include "sim/engine.h"
#include "sim/event_log.h"
#include "stats/rng.h"
#include "svc/admission_pipeline.h"
#include "svc/first_fit.h"
#include "svc/homogeneous_search.h"
#include "svc/manager.h"
#include "topology/builders.h"

namespace svc::core {
namespace {

// Four top-level subtrees (racks) of 3 machines x 2 slots — small enough
// for exhaustive comparison, wide enough that 4 shards are all distinct.
topology::Topology ShardTopo() {
  return topology::BuildTwoTier(4, 3, 2, 1000, 2.0);  // 24 slots
}

std::vector<Request> ShardChurn(int count, uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<Request> requests;
  requests.reserve(count);
  for (int i = 0; i < count; ++i) {
    // Sizes 2..7: small ones land inside one rack (single-shard commits),
    // big ones straddle racks (cross-shard path), and the mix overflows the
    // 24-slot fabric so rejections exercise the absorb paths too.
    const int n = static_cast<int>(rng.UniformInt(2, 7));
    const double mu = 100.0 * static_cast<double>(rng.UniformInt(1, 5));
    requests.push_back(
        Request::Homogeneous(1000 + i, n, mu, mu * rng.Uniform(0, 1)));
  }
  return requests;
}

// --- ShardMap partition invariants ------------------------------------------

TEST(ShardedPipelineMap, PartitionsLinksAndMachinesDisjointly) {
  const topology::Topology topo = ShardTopo();
  const net::ShardMap map(topo, 4);
  ASSERT_EQ(map.num_shards(), 4);
  EXPECT_EQ(map.core_stripe(), 4);
  EXPECT_EQ(map.bucket_count(), 5);

  // Every non-root vertex's uplink lands in exactly one bucket, and the
  // per-bucket link lists are exactly that partition.
  std::vector<int> seen(topo.num_vertices(), 0);
  size_t listed = 0;
  for (int b = 0; b < map.bucket_count(); ++b) {
    for (topology::VertexId v : map.links_in_bucket(b)) {
      EXPECT_EQ(map.bucket_of_link(v), b);
      ++seen[v];
      ++listed;
    }
  }
  EXPECT_EQ(listed, static_cast<size_t>(topo.num_vertices()) - 1);
  for (topology::VertexId v = 0; v < topo.num_vertices(); ++v) {
    EXPECT_EQ(seen[v], v == topo.root() ? 0 : 1) << "vertex " << v;
  }
  // Root children are the core stripe; everything below them inherits the
  // child's shard.
  for (topology::VertexId v = 0; v < topo.num_vertices(); ++v) {
    if (v == topo.root()) continue;
    if (topo.parent(v) == topo.root()) {
      EXPECT_EQ(map.bucket_of_link(v), map.core_stripe());
    } else {
      EXPECT_EQ(map.bucket_of_link(v), map.shard_of_vertex(v));
      EXPECT_EQ(map.shard_of_vertex(v), map.shard_of_vertex(topo.parent(v)));
    }
  }
  // Machines partition across shards; the core stripe owns none.
  size_t machines = 0;
  for (int s = 0; s < map.num_shards(); ++s) {
    for (topology::VertexId m : map.machines_in_shard(s)) {
      EXPECT_TRUE(topo.is_machine(m));
      EXPECT_EQ(map.shard_of_vertex(m), s);
      ++machines;
    }
  }
  EXPECT_EQ(machines, topo.machines().size());
}

TEST(ShardedPipelineMap, ClampsShardCountToRootChildren) {
  const topology::Topology topo = ShardTopo();  // 4 root children
  EXPECT_EQ(net::ShardMap(topo, 8).num_shards(), 4);
  EXPECT_EQ(net::ShardMap(topo, 0).num_shards(), 1);
  EXPECT_EQ(net::ShardMap(topo, -3).num_shards(), 1);
  EXPECT_EQ(net::ShardMap(topo, 3).num_shards(), 3);
  // A 3-shard map over 4 children still covers everything.
  const net::ShardMap map(topo, 3);
  size_t listed = 0;
  for (int b = 0; b < map.bucket_count(); ++b) {
    listed += map.links_in_bucket(b).size();
  }
  EXPECT_EQ(listed, static_cast<size_t>(topo.num_vertices()) - 1);
}

// --- Scoped epoch invalidation ----------------------------------------------

class ShardedPipelineEpochs : public ::testing::Test {
 protected:
  ShardedPipelineEpochs() : topo_(ShardTopo()), manager_(topo_, 0.05) {
    manager_.ConfigureSharding(std::make_shared<net::ShardMap>(topo_, 4));
  }

  // Machine `k` of rack `rack` (racks are the shards, in vertex order).
  topology::VertexId MachineIn(int rack, int k) const {
    return manager_.shard_map()->machines_in_shard(rack)[k];
  }

  Placement RackLocal(int rack) const {
    Placement p;
    p.vm_machine = {MachineIn(rack, 0), MachineIn(rack, 1)};
    return p;
  }

  topology::Topology topo_;
  NetworkManager manager_;
};

TEST_F(ShardedPipelineEpochs, CommitAndReleaseBumpOnlyTouchedShards) {
  const std::vector<uint64_t> before = manager_.shard_epochs();
  ASSERT_EQ(before.size(), 5u);

  // A rack-local tenant: both VMs under rack 1, whole hose inside — only
  // shard 1 moves (no demand reaches the rack uplink, so the core stripe
  // stays untouched).
  const Request r1 = Request::Homogeneous(1, 2, 100, 10);
  ASSERT_TRUE(manager_.AdmitPlacement(r1, RackLocal(1)).ok());
  std::vector<uint64_t> after = manager_.shard_epochs();
  EXPECT_NE(after[1], before[1]);
  EXPECT_EQ(after[0], before[0]);
  EXPECT_EQ(after[2], before[2]);
  EXPECT_EQ(after[3], before[3]);
  EXPECT_EQ(after[4], before[4]);  // core stripe

  // Satellite regression: Release invalidates only what the tenant
  // touched, not the whole fabric.
  const std::vector<uint64_t> pre_release = after;
  manager_.Release(1);
  after = manager_.shard_epochs();
  EXPECT_NE(after[1], pre_release[1]);
  EXPECT_EQ(after[0], pre_release[0]);
  EXPECT_EQ(after[2], pre_release[2]);
  EXPECT_EQ(after[3], pre_release[3]);
  EXPECT_EQ(after[4], pre_release[4]);
}

TEST_F(ShardedPipelineEpochs, CrossRackCommitBumpsBothShardsAndCore) {
  const std::vector<uint64_t> before = manager_.shard_epochs();
  Placement straddle;
  straddle.vm_machine = {MachineIn(0, 0), MachineIn(2, 0)};
  const Request r = Request::Homogeneous(2, 2, 100, 10);
  ASSERT_TRUE(manager_.AdmitPlacement(r, straddle).ok());
  const std::vector<uint64_t> after = manager_.shard_epochs();
  EXPECT_NE(after[0], before[0]);
  EXPECT_NE(after[2], before[2]);
  EXPECT_NE(after[4], before[4]);  // rack uplinks carry demand: core moved
  EXPECT_EQ(after[1], before[1]);
  EXPECT_EQ(after[3], before[3]);
}

TEST_F(ShardedPipelineEpochs, FaultAndRecoveryBumpOnlyTheTouchedBuckets) {
  // Satellite: the fault path's drain bump is scoped to the failed
  // element's bucket, not a global invalidation.
  const HomogeneousDpAllocator alloc;
  const topology::VertexId machine = MachineIn(3, 0);
  std::vector<uint64_t> before = manager_.shard_epochs();
  ASSERT_TRUE(manager_
                  .HandleFault(FaultKind::kMachine, machine,
                               RecoveryPolicy::kEvict, alloc)
                  .ok());
  std::vector<uint64_t> after = manager_.shard_epochs();
  EXPECT_NE(after[3], before[3]);
  EXPECT_EQ(after[0], before[0]);
  EXPECT_EQ(after[1], before[1]);
  EXPECT_EQ(after[2], before[2]);
  EXPECT_EQ(after[4], before[4]);

  before = after;
  ASSERT_TRUE(manager_.HandleRecovery(machine).ok());
  after = manager_.shard_epochs();
  EXPECT_NE(after[3], before[3]);
  EXPECT_EQ(after[0], before[0]);
  EXPECT_EQ(after[4], before[4]);

  // A rack-uplink (core) fault moves only the core stripe.
  const topology::VertexId rack = topo_.parent(machine);
  ASSERT_EQ(topo_.parent(rack), topo_.root());
  before = after;
  ASSERT_TRUE(manager_
                  .HandleFault(FaultKind::kLink, rack, RecoveryPolicy::kEvict,
                               alloc)
                  .ok());
  after = manager_.shard_epochs();
  EXPECT_NE(after[4], before[4]);
  EXPECT_EQ(after[0], before[0]);
  EXPECT_EQ(after[3], before[3]);
  ASSERT_TRUE(manager_.HandleRecovery(rack).ok());
}

TEST_F(ShardedPipelineEpochs, BucketsFreshTracksPerBucketStaleness) {
  const std::vector<uint64_t> at_capture = manager_.shard_epochs();
  ASSERT_TRUE(manager_
                  .AdmitPlacement(Request::Homogeneous(3, 2, 100, 10),
                                  RackLocal(0))
                  .ok());
  // Shard 0 went stale; every other bucket still matches.
  EXPECT_FALSE(manager_.BucketsFresh(uint64_t{1} << 0, at_capture));
  EXPECT_TRUE(manager_.BucketsFresh(uint64_t{1} << 1, at_capture));
  EXPECT_TRUE(manager_.BucketsFresh(uint64_t{1} << 4, at_capture));
  EXPECT_TRUE(manager_.BucketsFresh((uint64_t{1} << 1) | (uint64_t{1} << 3),
                                    at_capture));
  EXPECT_FALSE(manager_.BucketsFresh((uint64_t{1} << 0) | (uint64_t{1} << 1),
                                     at_capture));
  // A layout change stales everything.
  EXPECT_FALSE(manager_.BucketsFresh(uint64_t{1} << 1, {0, 0}));
}

// --- Partial snapshot re-capture --------------------------------------------

TEST(ShardedPipelineSnapshot, CaptureStaleEqualsFullCapture) {
  const topology::Topology topo = ShardTopo();
  const HomogeneousDpAllocator alloc;
  NetworkManager manager(topo, 0.05);
  manager.ConfigureSharding(std::make_shared<net::ShardMap>(topo, 4));

  AdmissionSnapshot partial(topo, 0.05);
  partial.CaptureStale(manager);  // empty-layout buffer: full-capture path
  EXPECT_EQ(partial.epoch(), manager.epoch());

  // Mutate a few buckets, then re-capture only the stale ones.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        manager.Admit(Request::Homogeneous(10 + i, 3, 150, 40), alloc).ok());
  }
  manager.Release(11);
  EXPECT_NE(partial.StaleBuckets(manager), 0u);
  partial.CaptureStale(manager);
  EXPECT_EQ(partial.StaleBuckets(manager), 0u);

  AdmissionSnapshot full(topo, 0.05);
  full.Capture(manager);
  EXPECT_EQ(partial.epoch(), full.epoch());
  EXPECT_EQ(partial.shard_epochs, full.shard_epochs);
  EXPECT_EQ(partial.slots.total_free(), full.slots.total_free());
  EXPECT_EQ(partial.view.ledger().MaxOccupancy(),
            full.view.ledger().MaxOccupancy());

  // The acid test: speculation against the partial re-capture produces the
  // exact placement the live books produce.
  const Request probe = Request::Homogeneous(99, 4, 200, 60);
  const AdmissionProposal from_partial = manager.Propose(probe, alloc, partial);
  const auto live = alloc.Allocate(probe, manager.ledger(), manager.slots());
  ASSERT_EQ(from_partial.ok, live.ok());
  ASSERT_TRUE(from_partial.ok);
  EXPECT_EQ(from_partial.placement.vm_machine, live->vm_machine);
  EXPECT_EQ(from_partial.placement.max_occupancy, live->max_occupancy);
}

// --- Serial equivalence: the tentpole guarantee -----------------------------

TEST(ShardedPipelineDeterministic, BitIdenticalAcrossShardAndWorkerCounts) {
  const topology::Topology topo = ShardTopo();
  const HomogeneousDpAllocator alloc;
  const std::vector<Request> requests = ShardChurn(48, 29);

  NetworkManager serial(topo, 0.05);
  std::vector<util::Result<Placement>> expected;
  for (const Request& r : requests) expected.push_back(serial.Admit(r, alloc));

  for (int shards : {1, 2, 4, 8}) {  // 8 clamps to the 4 root children
    for (int workers : {1, 4}) {
      NetworkManager manager(topo, 0.05);
      PipelineConfig config;
      config.workers = workers;
      config.shards = shards;
      AdmissionPipeline pipeline(manager, config);
      const auto decisions = pipeline.AdmitBatch(requests, alloc);
      ASSERT_EQ(decisions.size(), expected.size());
      for (size_t i = 0; i < decisions.size(); ++i) {
        ASSERT_EQ(decisions[i].ok(), expected[i].ok())
            << shards << " shards, " << workers << " workers, request " << i;
        if (decisions[i].ok()) {
          EXPECT_EQ(decisions[i]->vm_machine, expected[i]->vm_machine)
              << shards << " shards, " << workers << " workers, request "
              << i;
        }
      }
      EXPECT_EQ(manager.live_count(), serial.live_count());
      EXPECT_EQ(manager.slots().total_free(), serial.slots().total_free());
      EXPECT_EQ(manager.MaxOccupancy(), serial.MaxOccupancy());
      EXPECT_TRUE(manager.StateValid());
    }
  }
}

TEST(ShardedPipelineDeterministic, WindowBarriersDoNotChangeDecisions) {
  const topology::Topology topo = ShardTopo();
  const HomogeneousDpAllocator alloc;
  const std::vector<Request> requests = ShardChurn(40, 37);

  auto run = [&](int window) {
    NetworkManager manager(topo, 0.05);
    PipelineConfig config;
    config.workers = 4;
    config.shards = 4;
    AdmissionPipeline pipeline(manager, config);
    std::vector<char> verdicts;
    for (const auto& d :
         pipeline.AdmitBatch(requests, alloc, false, {}, window)) {
      verdicts.push_back(d.ok() ? 1 : 0);
    }
    return std::make_pair(verdicts, manager.MaxOccupancy());
  };
  const auto base = run(0);
  for (int window : {1, 3, 7, 16}) {
    EXPECT_EQ(run(window), base) << "window " << window;
  }
}

TEST(ShardedPipelineDeterministic, GreedyAllocatorStillSerialIdentical) {
  // first-fit declares neither monotone property, so every stale proposal
  // re-runs serially — slower, but decisions must still be bit-identical.
  // Unsharded (0) too: there a stale rejection re-runs on the sequencer.
  const topology::Topology topo = ShardTopo();
  const FirstFitAllocator alloc;
  const std::vector<Request> requests = ShardChurn(32, 43);

  NetworkManager serial(topo, 0.05);
  std::vector<char> expected;
  for (const Request& r : requests) {
    expected.push_back(serial.Admit(r, alloc).ok() ? 1 : 0);
  }
  for (int shards : {0, 4}) {
    NetworkManager manager(topo, 0.05);
    PipelineConfig config;
    config.workers = 4;
    config.shards = shards;
    AdmissionPipeline pipeline(manager, config);
    std::vector<char> verdicts;
    for (const auto& d : pipeline.AdmitBatch(requests, alloc)) {
      verdicts.push_back(d.ok() ? 1 : 0);
    }
    EXPECT_EQ(verdicts, expected) << shards << " shards";
    EXPECT_EQ(manager.MaxOccupancy(), serial.MaxOccupancy())
        << shards << " shards";
  }
}

TEST(ShardedPipelineStats, AccountsDispatchesConflictsAndHistogram) {
  const topology::Topology topo = ShardTopo();
  const HomogeneousDpAllocator alloc;
  const std::vector<Request> requests = ShardChurn(48, 53);
  NetworkManager manager(topo, 0.05);
  PipelineConfig config;
  config.workers = 4;
  config.shards = 4;
  AdmissionPipeline pipeline(manager, config);
  EXPECT_EQ(pipeline.shard_workers(), 4);
  int64_t admitted = 0;
  for (const auto& d : pipeline.AdmitBatch(requests, alloc)) {
    if (d.ok()) ++admitted;
  }
  const PipelineStats& stats = pipeline.stats();
  EXPECT_EQ(stats.committed, admitted);
  EXPECT_EQ(stats.committed + stats.rejected,
            static_cast<int64_t>(requests.size()));
  EXPECT_EQ(stats.committed, static_cast<int64_t>(manager.live_count()));
  // Every commit took exactly one route: shard dispatch, fresh cross-shard
  // inline, or serial fallback (fallbacks also covers re-run rejections,
  // hence <=).
  EXPECT_LE(stats.shard_commits + stats.cross_shard_commits, stats.committed);
  EXPECT_GE(stats.shard_commits + stats.cross_shard_commits + stats.fallbacks,
            stats.committed);
  EXPECT_GT(stats.shard_commits, 0);
  // The histogram covers every admit proposal the sequencer classified.
  const std::vector<int64_t>& hist = pipeline.touched_shard_histogram();
  ASSERT_EQ(hist.size(), 5u);
  int64_t proposals = 0;
  for (int64_t h : hist) proposals += h;
  EXPECT_GT(proposals, 0);
  EXPECT_GT(hist[1], 0);  // rack-local tenants exist in the churn mix
}

}  // namespace
}  // namespace svc::core

// --- Engine integration: sharded runs replay byte for byte ------------------

namespace svc::sim {
namespace {

workload::JobSpec ShardJob(int64_t id, int size, double compute,
                           double rate_mean, double rate_stddev,
                           double flow_mbits, double arrival = 0) {
  workload::JobSpec job;
  job.id = id;
  job.size = size;
  job.compute_time = compute;
  job.rate_mean = rate_mean;
  job.rate_stddev = rate_stddev;
  job.flow_mbits = flow_mbits;
  job.arrival_time = arrival;
  return job;
}

std::vector<workload::JobSpec> ShardJobs() {
  std::vector<workload::JobSpec> jobs;
  for (int j = 0; j < 14; ++j) {
    jobs.push_back(ShardJob(j + 1, 2 + (j % 5), 20 + 3 * j,
                            100 + 10 * (j % 3), 10 * (j % 4), 400,
                            40.0 * (j / 4)));
  }
  return jobs;
}

void ExpectSameEvents(const EventLog& a, const EventLog& b) {
  ASSERT_EQ(a.events().size(), b.events().size());
  for (size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].time, b.events()[i].time) << i;
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind) << i;
    EXPECT_EQ(a.events()[i].job_id, b.events()[i].job_id) << i;
  }
}

// Satellite: fixed-seed fault runs replay identically across shard counts,
// worker counts, and cross-window lookahead — placements, outage
// accounting, fault outcomes, every event.
TEST(ShardedPipelineEngine, RunBatchWithFaultsBitIdenticalAcrossShards) {
  const topology::Topology topo = topology::BuildTwoTier(4, 3, 2, 2000, 2.0);
  const core::HomogeneousDpAllocator alloc;
  auto run = [&](int workers, int shards, int lookahead, EventLog& events) {
    SimConfig config;
    config.abstraction = workload::Abstraction::kSvc;
    config.allocator = &alloc;
    config.seed = 13;
    config.admission_workers = workers;
    config.admission_window = 4;
    config.admission_lookahead = lookahead;
    config.admission_shards = shards;
    config.events = &events;
    config.faults.policy = core::RecoveryPolicy::kReallocate;
    config.faults.scripted.push_back(
        {30.0, topo.machines()[0], core::FaultKind::kMachine, /*fail=*/true});
    config.faults.scripted.push_back(
        {90.0, topo.machines()[0], core::FaultKind::kMachine,
         /*fail=*/false});
    Engine engine(topo, config);
    return engine.RunBatch(ShardJobs());
  };
  EventLog serial_events;
  const BatchResult serial = run(0, 0, 1, serial_events);
  EXPECT_GT(serial.faults_injected, 0);
  struct Case {
    int workers, shards, lookahead;
  };
  for (const Case& c : {Case{4, 1, 1}, Case{4, 2, 1}, Case{4, 4, 1},
                        Case{4, 4, 4}, Case{1, 4, 2}, Case{4, 8, 2}}) {
    EventLog events;
    const BatchResult result = run(c.workers, c.shards, c.lookahead, events);
    SCOPED_TRACE(::testing::Message() << c.workers << " workers, " << c.shards
                                      << " shards, lookahead "
                                      << c.lookahead);
    EXPECT_EQ(result.faults_injected, serial.faults_injected);
    EXPECT_EQ(result.fault_recoveries, serial.fault_recoveries);
    EXPECT_EQ(result.tenants_affected, serial.tenants_affected);
    EXPECT_EQ(result.tenants_recovered, serial.tenants_recovered);
    EXPECT_EQ(result.tenants_evicted, serial.tenants_evicted);
    ASSERT_EQ(result.jobs.size(), serial.jobs.size());
    for (size_t i = 0; i < serial.jobs.size(); ++i) {
      EXPECT_EQ(result.jobs[i].id, serial.jobs[i].id);
      EXPECT_EQ(result.jobs[i].start_time, serial.jobs[i].start_time);
      EXPECT_EQ(result.jobs[i].finish_time, serial.jobs[i].finish_time);
    }
    EXPECT_EQ(result.total_completion_time, serial.total_completion_time);
    EXPECT_EQ(result.placement_levels, serial.placement_levels);
    ExpectSameEvents(events, serial_events);
  }
}

TEST(ShardedPipelineEngine, RunOnlineOutageAccountingIdenticalAcrossShards) {
  const topology::Topology topo = topology::BuildTwoTier(4, 3, 2, 2000, 2.0);
  const core::HomogeneousDpAllocator alloc;
  auto run = [&](int workers, int shards) {
    SimConfig config;
    config.abstraction = workload::Abstraction::kSvc;
    config.allocator = &alloc;
    config.seed = 17;
    config.admission_workers = workers;
    config.admission_shards = shards;
    config.faults.policy = core::RecoveryPolicy::kPatch;
    config.faults.scripted.push_back(
        {25.0, topo.machines()[4], core::FaultKind::kMachine, /*fail=*/true});
    config.faults.scripted.push_back(
        {70.0, topo.machines()[4], core::FaultKind::kMachine,
         /*fail=*/false});
    Engine engine(topo, config);
    return engine.RunOnline(ShardJobs());
  };
  const OnlineResult serial = run(0, 0);
  for (int shards : {1, 2, 4}) {
    const OnlineResult result = run(4, shards);
    SCOPED_TRACE(::testing::Message() << shards << " shards");
    EXPECT_EQ(result.accepted, serial.accepted);
    EXPECT_EQ(result.rejected, serial.rejected);
    EXPECT_EQ(result.outage.outage_link_seconds,
              serial.outage.outage_link_seconds);
    EXPECT_EQ(result.outage.busy_link_seconds,
              serial.outage.busy_link_seconds);
    EXPECT_EQ(result.failure_outage.outage_link_seconds,
              serial.failure_outage.outage_link_seconds);
    EXPECT_EQ(result.tenants_recovered, serial.tenants_recovered);
    EXPECT_EQ(result.tenants_evicted, serial.tenants_evicted);
    ASSERT_EQ(result.jobs.size(), serial.jobs.size());
    for (size_t i = 0; i < serial.jobs.size(); ++i) {
      EXPECT_EQ(result.jobs[i].finish_time, serial.jobs[i].finish_time);
    }
    EXPECT_EQ(result.max_occupancy_samples, serial.max_occupancy_samples);
  }
}

}  // namespace
}  // namespace svc::sim
