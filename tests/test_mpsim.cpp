// Tests for the mpsim message-passing substrate and the cost model.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <thread>

#include "gnumap/mpsim/communicator.hpp"
#include "gnumap/mpsim/cost_model.hpp"
#include "gnumap/util/error.hpp"

namespace gnumap {
namespace {

class WorldSizes : public ::testing::TestWithParam<int> {};

TEST_P(WorldSizes, PointToPointRing) {
  const int p = GetParam();
  std::vector<std::uint64_t> received(static_cast<std::size_t>(p), 0);
  run_world(p, [&](Communicator& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    comm.send_u64(next, 5, static_cast<std::uint64_t>(comm.rank()) * 10);
    received[static_cast<std::size_t>(comm.rank())] = comm.recv_u64(prev, 5);
  });
  for (int r = 0; r < p; ++r) {
    const int prev = (r + p - 1) % p;
    EXPECT_EQ(received[static_cast<std::size_t>(r)],
              static_cast<std::uint64_t>(prev) * 10);
  }
}

TEST_P(WorldSizes, BarrierSynchronizes) {
  const int p = GetParam();
  std::atomic<int> phase1{0};
  std::atomic<bool> violated{false};
  run_world(p, [&](Communicator& comm) {
    phase1.fetch_add(1);
    comm.barrier();
    if (phase1.load() != p) violated.store(true);
  });
  EXPECT_FALSE(violated.load());
}

TEST_P(WorldSizes, BroadcastFromEveryRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    std::vector<std::vector<std::uint8_t>> results(
        static_cast<std::size_t>(p));
    run_world(p, [&](Communicator& comm) {
      std::vector<std::uint8_t> data;
      if (comm.rank() == root) data = {1, 2, 3, 4, 5};
      results[static_cast<std::size_t>(comm.rank())] =
          comm.bcast(root, std::move(data));
    });
    for (const auto& r : results) {
      EXPECT_EQ(r, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
    }
  }
}

TEST_P(WorldSizes, ReduceSumToRoot) {
  const int p = GetParam();
  std::vector<double> root_result;
  run_world(p, [&](Communicator& comm) {
    std::vector<double> values = {static_cast<double>(comm.rank()), 1.0,
                                  2.0 * comm.rank()};
    comm.reduce_sum(values, 0);
    if (comm.rank() == 0) root_result = values;
  });
  const double rank_sum = p * (p - 1) / 2.0;
  ASSERT_EQ(root_result.size(), 3u);
  EXPECT_DOUBLE_EQ(root_result[0], rank_sum);
  EXPECT_DOUBLE_EQ(root_result[1], static_cast<double>(p));
  EXPECT_DOUBLE_EQ(root_result[2], 2.0 * rank_sum);
}

TEST_P(WorldSizes, AllreduceSumEverywhere) {
  const int p = GetParam();
  std::vector<double> results(static_cast<std::size_t>(p), 0.0);
  run_world(p, [&](Communicator& comm) {
    std::vector<double> values = {1.0};
    comm.allreduce_sum(values);
    results[static_cast<std::size_t>(comm.rank())] = values[0];
  });
  for (const double r : results) EXPECT_DOUBLE_EQ(r, p);
}

TEST_P(WorldSizes, GatherCollectsInRankOrder) {
  const int p = GetParam();
  std::vector<std::vector<std::uint8_t>> gathered;
  run_world(p, [&](Communicator& comm) {
    std::vector<std::uint8_t> mine = {
        static_cast<std::uint8_t>(comm.rank() + 1)};
    auto result = comm.gather(0, std::move(mine));
    if (comm.rank() == 0) gathered = std::move(result);
  });
  ASSERT_EQ(gathered.size(), static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    ASSERT_EQ(gathered[static_cast<std::size_t>(r)].size(), 1u);
    EXPECT_EQ(gathered[static_cast<std::size_t>(r)][0], r + 1);
  }
}

TEST_P(WorldSizes, BackToBackCollectivesDoNotCrossTalk) {
  const int p = GetParam();
  std::vector<double> results(static_cast<std::size_t>(p), 0.0);
  run_world(p, [&](Communicator& comm) {
    for (int round = 0; round < 10; ++round) {
      std::vector<double> v = {static_cast<double>(round)};
      comm.allreduce_sum(v);
      if (v[0] != round * p) {
        results[static_cast<std::size_t>(comm.rank())] = -1.0;
        return;
      }
    }
    results[static_cast<std::size_t>(comm.rank())] = 1.0;
  });
  for (const double r : results) EXPECT_DOUBLE_EQ(r, 1.0);
}

TEST_P(WorldSizes, GenericReduceWithCustomCombine) {
  const int p = GetParam();
  std::vector<std::uint8_t> result;
  run_world(p, [&](Communicator& comm) {
    std::vector<std::uint8_t> mine = {
        static_cast<std::uint8_t>(1u << (comm.rank() % 8))};
    auto combined = comm.reduce(
        0, std::move(mine),
        [](std::vector<std::uint8_t> a, std::vector<std::uint8_t> b) {
          a[0] |= b[0];
          return a;
        });
    if (comm.rank() == 0) result = std::move(combined);
  });
  std::uint8_t expected = 0;
  for (int r = 0; r < p; ++r) expected |= static_cast<std::uint8_t>(1u << (r % 8));
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], expected);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, WorldSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16));

TEST(Mpsim, StatsCountTraffic) {
  const auto stats = run_world(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 3, std::vector<std::uint8_t>(100));
    } else {
      comm.recv(0, 3);
    }
  });
  EXPECT_EQ(stats[0].messages_sent, 1u);
  EXPECT_EQ(stats[0].bytes_sent, 100u);
  EXPECT_EQ(stats[1].messages_received, 1u);
  EXPECT_EQ(stats[1].bytes_received, 100u);
}

TEST(Mpsim, OutOfOrderTagsMatch) {
  run_world(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_u64(1, 10, 111);
      comm.send_u64(1, 20, 222);
    } else {
      // Receive in the opposite order of sending.
      EXPECT_EQ(comm.recv_u64(0, 20), 222u);
      EXPECT_EQ(comm.recv_u64(0, 10), 111u);
    }
  });
}

TEST(Mpsim, ExceptionsPropagate) {
  EXPECT_THROW(run_world(2,
                         [](Communicator& comm) {
                           comm.barrier();
                           if (comm.rank() == 1) {
                             throw ConfigError("rank 1 exploded");
                           }
                         }),
               ConfigError);
}

TEST(Mpsim, RankFailureWakesPeersBlockedInCollectives) {
  // The deadlock hazard this layer exists to fix: rank 2 dies while every
  // other rank is blocked in a barrier (and rank 0 additionally in a recv).
  // All peers must wake, and the *original* exception must win the rethrow
  // over the secondary RankFailedErrors the wakeups produce.
  try {
    run_world(4, [](Communicator& comm) {
      if (comm.rank() == 2) {
        throw ConfigError("rank 2 exploded");
      }
      if (comm.rank() == 0) comm.recv(2, 17);  // never sent
      comm.barrier();
      FAIL() << "rank " << comm.rank() << " survived a dead world";
    });
    FAIL() << "run_world did not rethrow";
  } catch (const RankFailedError&) {
    FAIL() << "secondary peer-death error shadowed the root cause";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "rank 2 exploded");
  }
}

TEST(Mpsim, ComputeClockCountsThreadCpuNotSleep) {
  // The per-rank compute clock is thread CPU time: a rank that sleeps
  // inside a compute phase accrues (almost) nothing, and a busy rank's
  // work is still counted.
  const WorldRun run = run_world_collect(2, {}, [](Communicator& comm) {
    comm.compute_clock().start();
    if (comm.rank() == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    } else {
      volatile double x = 0.0;
      for (int i = 0; i < 5'000'000; ++i) x = x + 1.0;
    }
    comm.compute_clock().stop();
  });
  ASSERT_FALSE(run.error);
  EXPECT_GT(run.compute_seconds[0], 0.0);
  EXPECT_LT(run.compute_seconds[1], 0.05);
}

TEST(Mpsim, RejectsInvalidArgs) {
  EXPECT_THROW(run_world(0, [](Communicator&) {}), ConfigError);
  run_world(1, [](Communicator& comm) {
    EXPECT_THROW(comm.send(5, 0, {}), ConfigError);
    EXPECT_THROW(comm.send(0, 1 << 21, {}), ConfigError);
  });
}

// ---------------------------------------------------------------------------
// Cost model

TEST(CostModel, RankTimeComposition) {
  RankCost cost;
  cost.compute_seconds = 2.0;
  cost.comm.messages_sent = 100;
  cost.comm.bytes_sent = 1'000'000;
  CostModelParams params;
  params.alpha = 1e-3;
  params.beta = 1e6;
  // 2.0 + 100 * 1e-3 + 1e6 / 1e6 = 3.1
  EXPECT_NEAR(rank_time(cost, params), 3.1, 1e-12);
}

TEST(CostModel, MakespanIsSlowestRank) {
  std::vector<RankCost> costs(3);
  costs[0].compute_seconds = 1.0;
  costs[1].compute_seconds = 5.0;
  costs[2].compute_seconds = 2.0;
  EXPECT_DOUBLE_EQ(simulated_makespan(costs, CostModelParams{}), 5.0);
}

TEST(CostModel, CommDominatesWithSlowNetwork) {
  RankCost cost;
  cost.compute_seconds = 1.0;
  cost.comm.bytes_sent = 125'000'000;  // 1 second at default beta
  CostModelParams fast;
  CostModelParams slow;
  slow.beta = 12'500'000;  // 10x slower network
  EXPECT_GT(rank_time(cost, slow), rank_time(cost, fast) + 8.0);
}

TEST(CostModel, RejectsBadParams) {
  CostModelParams params;
  params.beta = 0.0;
  EXPECT_THROW(rank_time(RankCost{}, params), ConfigError);
}

}  // namespace
}  // namespace gnumap
