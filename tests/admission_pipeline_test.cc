// Batch admission: AdmitBatch is a loop of NetworkManager::Admit in request
// order, with FIFO abort semantics and per-request decision callbacks.
//
// Every fixture name contains "Pipeline" so the file can be selected with a
// single -R regex.
#include "svc/admission_pipeline.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "stats/rng.h"
#include "svc/first_fit.h"
#include "svc/hetero_exact.h"
#include "svc/hetero_heuristic.h"
#include "svc/homogeneous_search.h"
#include "topology/builders.h"

namespace svc::core {
namespace {

topology::Topology TestTopo() {
  return topology::BuildTwoTier(2, 3, 4, 1000, 2.0);  // 24 slots
}

// A request mix sized so a 24-slot fabric admits some and rejects others.
std::vector<Request> ChurnRequests(int count, uint64_t seed,
                                   RequestId first_id = 1000) {
  stats::Rng rng(seed);
  std::vector<Request> requests;
  requests.reserve(count);
  for (int i = 0; i < count; ++i) {
    const int n = static_cast<int>(rng.UniformInt(2, 8));
    const double mu = 100.0 * static_cast<double>(rng.UniformInt(1, 5));
    requests.push_back(
        Request::Homogeneous(first_id + i, n, mu, mu * rng.Uniform(0, 1)));
  }
  return requests;
}

// --- Equivalence with a loop of Admit ---------------------------------------

TEST(PipelineDeterministic, MatchesSerialDecisionsAndBooks) {
  const topology::Topology topo = TestTopo();
  const HomogeneousDpAllocator dp;
  const FirstFitAllocator first_fit;
  const std::vector<Request> requests = ChurnRequests(40, 17);
  for (const Allocator* alloc : {static_cast<const Allocator*>(&dp),
                                 static_cast<const Allocator*>(&first_fit)}) {
    SCOPED_TRACE(std::string(alloc->name()));
    NetworkManager serial(topo, 0.05);
    std::vector<util::Result<Placement>> expected;
    for (const Request& r : requests) {
      expected.push_back(serial.Admit(r, *alloc));
    }

    NetworkManager batched(topo, 0.05);
    AdmissionPipeline pipeline(batched);
    const auto decisions = pipeline.AdmitBatch(requests, *alloc);

    ASSERT_EQ(decisions.size(), expected.size());
    int admitted = 0;
    for (size_t i = 0; i < decisions.size(); ++i) {
      ASSERT_EQ(decisions[i].ok(), expected[i].ok()) << "request " << i;
      if (decisions[i].ok()) {
        ++admitted;
        EXPECT_EQ(decisions[i]->vm_machine, expected[i]->vm_machine)
            << "request " << i;
        EXPECT_EQ(decisions[i]->subtree_root, expected[i]->subtree_root);
      } else {
        EXPECT_EQ(decisions[i].status().ToText(),
                  expected[i].status().ToText());
      }
    }
    // The mix exercises both verdicts.
    EXPECT_GT(admitted, 0);
    EXPECT_LT(admitted, static_cast<int>(requests.size()));
    EXPECT_EQ(batched.live_count(), serial.live_count());
    EXPECT_EQ(batched.slots().total_free(), serial.slots().total_free());
    EXPECT_EQ(batched.ledger().TotalRecords(),
              serial.ledger().TotalRecords());
    EXPECT_EQ(batched.MaxOccupancy(), serial.MaxOccupancy());  // bit-identical
    EXPECT_TRUE(batched.StateValid());
  }
}

// PipelineConfig::{workers, shards} are accepted and ignored.
TEST(PipelineDeterministic, IdenticalAcrossWorkerCounts) {
  const topology::Topology topo = TestTopo();
  const HomogeneousDpAllocator alloc;
  const std::vector<Request> requests = ChurnRequests(30, 23);

  auto run = [&](int workers, int shards) {
    NetworkManager manager(topo, 0.05);
    PipelineConfig config;
    config.workers = workers;
    config.shards = shards;
    AdmissionPipeline pipeline(manager, config);
    EXPECT_EQ(pipeline.shard_workers(), 0);
    std::vector<char> verdicts;
    for (const auto& d : pipeline.AdmitBatch(requests, alloc)) {
      verdicts.push_back(d.ok() ? 1 : 0);
    }
    return std::make_pair(verdicts, manager.MaxOccupancy());
  };
  const auto base = run(0, 0);
  for (const auto& [workers, shards] :
       {std::pair{1, 1}, std::pair{4, 0}, std::pair{4, 4}, std::pair{8, 2}}) {
    EXPECT_EQ(run(workers, shards), base)
        << workers << " workers, " << shards << " shards";
  }
}

TEST(PipelineDeterministic, StatsAccountForEveryRequest) {
  const topology::Topology topo = TestTopo();
  const HomogeneousDpAllocator alloc;
  NetworkManager manager(topo, 0.05);
  AdmissionPipeline pipeline(manager);
  int64_t admitted = 0;
  int64_t offered = 0;
  // Cumulative across batches.
  for (const auto& [seed, first_id] :
       {std::pair{31, 1000}, std::pair{37, 2000}}) {
    const std::vector<Request> batch = ChurnRequests(30, seed, first_id);
    for (const auto& d : pipeline.AdmitBatch(batch, alloc)) {
      if (d.ok()) ++admitted;
    }
    offered += static_cast<int64_t>(batch.size());
  }
  const PipelineStats& stats = pipeline.stats();
  EXPECT_EQ(stats.proposed, offered);
  EXPECT_EQ(stats.committed, admitted);
  EXPECT_EQ(stats.committed + stats.rejected, offered);
  EXPECT_EQ(stats.committed, static_cast<int64_t>(manager.live_count()));
  // Nothing speculates, so nothing conflicts, falls back or is handed off.
  EXPECT_EQ(stats.conflicts, 0);
  EXPECT_EQ(stats.fallbacks, 0);
  EXPECT_EQ(stats.shard_commits, 0);
  EXPECT_EQ(stats.cross_shard_commits, 0);
}

TEST(PipelineDeterministic, DecisionObserverRunsInRequestOrder) {
  const topology::Topology topo = TestTopo();
  const HomogeneousDpAllocator alloc;
  const std::vector<Request> requests = ChurnRequests(20, 41);
  NetworkManager manager(topo, 0.05);
  AdmissionPipeline pipeline(manager);
  std::vector<size_t> order;
  pipeline.AdmitBatch(requests, alloc, /*stop_on_failure=*/false,
                      [&](size_t i, util::Result<Placement>& r) {
                        // Called right after request i's Admit: the books
                        // already hold it, and no later request yet.
                        EXPECT_EQ(manager.IsLive(requests[i].id()), r.ok());
                        if (i + 1 < requests.size()) {
                          EXPECT_FALSE(manager.IsLive(requests[i + 1].id()));
                        }
                        order.push_back(i);
                      });
  ASSERT_EQ(order.size(), requests.size());
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

#if defined(GTEST_HAS_DEATH_TEST)
// Request-order decisions are the only discipline; asking for any other one
// stops the process.
TEST(PipelineDeathTest, NonDeterministicConfigIsRefused) {
  const topology::Topology topo = TestTopo();
  NetworkManager manager(topo, 0.05);
  PipelineConfig config;
  config.workers = 2;
  config.deterministic = false;
  EXPECT_DEATH({ AdmissionPipeline pipeline(manager, config); },
               "deterministic must be true");
}
#endif

// --- FIFO abort (stop_on_failure) ------------------------------------------

TEST(PipelineFifo, StopOnFailureMatchesSerialPrefix) {
  const topology::Topology topo = TestTopo();
  const HomogeneousDpAllocator alloc;
  // Requests 0..4 are small enough to always fit an empty fabric; request
  // 5 can never fit (more VMs than the fabric has slots), so the FIFO
  // admission stops there.
  std::vector<Request> requests;
  for (int i = 0; i < 12; ++i) {
    requests.push_back(Request::Homogeneous(2000 + i, 2, 100, 10));
  }
  requests[5] = Request::Homogeneous(2005, 100, 100, 10);

  NetworkManager manager(topo, 0.05);
  AdmissionPipeline pipeline(manager);
  std::vector<size_t> observed;
  const auto decisions = pipeline.AdmitBatch(
      requests, alloc, /*stop_on_failure=*/true,
      [&](size_t i, util::Result<Placement>&) { observed.push_back(i); });

  ASSERT_EQ(decisions.size(), requests.size());
  EXPECT_FALSE(decisions[5].ok());
  for (size_t i = 6; i < decisions.size(); ++i) {
    ASSERT_FALSE(decisions[i].ok());
    EXPECT_EQ(decisions[i].status().code(),
              util::ErrorCode::kFailedPrecondition)
        << "request " << i;
    EXPECT_EQ(decisions[i].status().message().rfind("not attempted", 0), 0u)
        << decisions[i].status().message();
    EXPECT_FALSE(manager.IsLive(requests[i].id()));
  }
  // The observer sees exactly the attempted prefix, in order.
  ASSERT_EQ(observed.size(), 6u);
  for (size_t i = 0; i < observed.size(); ++i) EXPECT_EQ(observed[i], i);
  // Decisions before the failure match a serial FIFO run.
  NetworkManager serial(topo, 0.05);
  for (size_t i = 0; i < 6; ++i) {
    const auto expected = serial.Admit(requests[i], alloc);
    EXPECT_EQ(decisions[i].ok(), expected.ok()) << "request " << i;
  }
  EXPECT_EQ(manager.live_count(), serial.live_count());
  // Not-attempted requests are not counted.
  EXPECT_EQ(pipeline.stats().proposed, 6);
  EXPECT_EQ(pipeline.stats().committed + pipeline.stats().rejected, 6);
}

// --- Monotone declarations ----------------------------------------------------

TEST(PipelineMonotone, CompleteSearchesDeclareMonotoneGreedyHeuristicsDoNot) {
  EXPECT_TRUE(HomogeneousDpAllocator().monotone_rejections());
  EXPECT_TRUE(TivcAdaptedAllocator().monotone_rejections());
  EXPECT_TRUE(OktopusAllocator().monotone_rejections());
  EXPECT_TRUE(HeteroExactAllocator().monotone_rejections());
  EXPECT_FALSE(FirstFitAllocator().monotone_rejections());
  EXPECT_FALSE(HeteroHeuristicAllocator().monotone_rejections());
}

}  // namespace
}  // namespace svc::core
