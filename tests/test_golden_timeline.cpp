// Golden timeline: one clean run per (core config, workload) with a snapshot
// ladder every kLadderStride cycles. Shards fork their golden core from the
// ladder instead of re-advancing it from cycle 0, which is only sound if a
// fork is exactly the core it replaces. These tests pin that equivalence for
// every workload and at every kind of point (before the first rung, on a
// rung, between rungs, past the last rung), check that the public
// run_uarch_shard entry point matches the campaign's own shards, and drive
// the process-wide timeline store from many threads (`tsan` label).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "faultinject/export.hpp"
#include "faultinject/orchestrator.hpp"
#include "faultinject/uarch_campaign.hpp"
#include "uarch/core.hpp"
#include "workloads/workloads.hpp"

namespace restore::faultinject {
namespace {

using uarch::Core;

void step_to(Core& core, u64 cycle) {
  while (core.running() && core.cycle_count() < cycle) core.cycle();
}

TEST(GoldenTimeline, LadderMatchesCleanRunForEveryWorkload) {
  for (const auto& wl : workloads::all()) {
    const GoldenTimeline& timeline = golden_timeline(wl, uarch::CoreConfig{});
    Core reference(wl.program);
    for (std::size_t i = 0; i < timeline.ladder.size(); ++i) {
      const u64 rung_cycle = (i + 1) * kLadderStride;
      step_to(reference, rung_cycle);
      ASSERT_EQ(timeline.ladder[i].cycle_count(), rung_cycle) << wl.name;
      ASSERT_TRUE(timeline.ladder[i].state_equal(reference))
          << wl.name << " rung " << i;
    }
    reference.run(100'000'000);
    EXPECT_EQ(timeline.total_cycles, reference.cycle_count()) << wl.name;
    // Every cycle the core was still running at a stride multiple has a rung.
    EXPECT_EQ(timeline.ladder.size(), (timeline.total_cycles - 1) / kLadderStride)
        << wl.name;
  }
}

TEST(GoldenTimeline, LadderForkEqualsAdvanceFromCycleZero) {
  for (const auto& wl : workloads::all()) {
    const GoldenTimeline& timeline = golden_timeline(wl, uarch::CoreConfig{});
    ASSERT_GE(timeline.ladder.size(), 4u) << wl.name;
    const u64 last_rung = timeline.ladder.size() * kLadderStride;
    const std::vector<u64> points = {
        kLadderStride / 2,                 // before the first rung
        3 * kLadderStride,                 // exactly on a rung
        3 * kLadderStride + 517,           // between rungs, just past one
        last_rung + (timeline.total_cycles - last_rung) / 2,  // past the last
    };
    Core reference(wl.program);  // advanced cycle by cycle from 0
    // Walked through the points like a shard's golden core: at the
    // between-rungs point it already sits on that rung, so it steps on
    // instead of jumping.
    Core shard_golden(wl.program);
    for (const u64 point : points) {
      step_to(reference, point);
      Core forked(wl.program);
      advance_golden(timeline, forked, point);
      advance_golden(timeline, shard_golden, point);
      EXPECT_EQ(forked.cycle_count(), point) << wl.name;
      EXPECT_TRUE(forked.state_equal(reference)) << wl.name << " @" << point;
      EXPECT_TRUE(shard_golden.state_equal(reference)) << wl.name << " @" << point;
    }
  }
}

UarchCampaignConfig small_config() {
  UarchCampaignConfig config;
  config.seed = 0x71AE;
  config.trials_per_workload = 12;
  config.workloads = {"gzip", "mcf"};
  config.monitor_cycles = 2'000;
  config.catchup_cycles = 2'000;
  return config;
}

constexpr u64 kShardTrials = 4;

std::string csv_of(const std::vector<UarchTrialRecord>& trials) {
  std::ostringstream csv;
  write_uarch_trials_csv(csv, trials);
  return csv.str();
}

TEST(GoldenTimeline, PublicShardMatchesCampaignShards) {
  const UarchCampaignConfig config = small_config();
  // The public entry point runs first, so it builds the timelines itself.
  std::vector<UarchTrialRecord> standalone;
  for (const auto& shard : plan_shards(config.seed, config.workloads,
                                       config.trials_per_workload, kShardTrials)) {
    for (auto& t : run_uarch_shard(config, shard)) standalone.push_back(std::move(t));
  }
  for (const std::size_t workers : {0u, 3u}) {
    CampaignRunOptions options;
    options.workers = workers;
    options.shard_trials = kShardTrials;
    const auto result = run_uarch_campaign(config, options);
    EXPECT_EQ(csv_of(standalone), csv_of(result.trials)) << "workers=" << workers;
  }
}

TEST(GoldenTimeline, ConcurrentStoreAccessBuildsOneTimeline) {
  // A core config no other test uses, so every thread starts on a cold store
  // entry and several may build it at once; exactly one build must win.
  uarch::CoreConfig config;
  config.l1d_miss_latency += 3;
  const auto& wl = workloads::by_name("gzip");
  constexpr std::size_t kThreads = 8;
  std::vector<const GoldenTimeline*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] { seen[i] = &golden_timeline(wl, config); });
  }
  for (auto& t : threads) t.join();
  for (const GoldenTimeline* timeline : seen) EXPECT_EQ(timeline, seen.front());
  EXPECT_EQ(&golden_timeline(wl, config), seen.front());

  // Shards of one workload running concurrently on the shared ladder match
  // the same shards run one after another.
  UarchCampaignConfig campaign = small_config();
  campaign.core_config = config;
  campaign.workloads = {"gzip"};
  const auto shards = plan_shards(campaign.seed, campaign.workloads,
                                  campaign.trials_per_workload, kShardTrials);
  std::vector<std::string> sequential;
  for (const auto& shard : shards) {
    sequential.push_back(csv_of(run_uarch_shard(campaign, shard)));
  }
  std::vector<std::string> concurrent(shards.size());
  threads.clear();
  for (std::size_t i = 0; i < shards.size(); ++i) {
    threads.emplace_back([&, i] {
      concurrent[i] = csv_of(run_uarch_shard(campaign, shards[i]));
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(sequential, concurrent);
}

}  // namespace
}  // namespace restore::faultinject
