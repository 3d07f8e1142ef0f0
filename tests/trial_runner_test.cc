// Property tests for the parallel trial runner: run_trials() must return
// results in submission order that are BIT-IDENTICAL to running each trial
// sequentially, for any worker count — trials share no mutable state, so
// threading is purely a wall-clock optimization, never a trajectory change.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "scoped_env.h"
#include "testbed/experiment.h"

namespace digs {
namespace {

using testing_env::ScopedEnv;

std::vector<TrialSpec> small_trials() {
  std::vector<TrialSpec> trials;
  for (int run = 0; run < 6; ++run) {
    ExperimentConfig config;
    config.suite =
        run % 2 == 0 ? ProtocolSuite::kDigs : ProtocolSuite::kOrchestra;
    config.seed = 21'000 + run;
    config.num_flows = 4;
    config.warmup = seconds(static_cast<std::int64_t>(60));
    config.duration = seconds(static_cast<std::int64_t>(30));
    config.num_jammers = run % 3;
    trials.push_back(TrialSpec{testbed_a(), config});
  }
  return trials;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.overall_pdr, b.overall_pdr);
  EXPECT_EQ(a.flow_pdrs, b.flow_pdrs);
  EXPECT_EQ(a.latencies_ms, b.latencies_ms);
  EXPECT_EQ(a.energy_per_delivered_mj, b.energy_per_delivered_mj);
  EXPECT_EQ(a.duty_cycle, b.duty_cycle);
  EXPECT_EQ(a.duty_cycle_per_delivered, b.duty_cycle_per_delivered);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.repair_times_s, b.repair_times_s);
  EXPECT_EQ(a.join_times_s, b.join_times_s);
  EXPECT_EQ(a.full_join_times_s, b.full_join_times_s);
}

TEST(TrialRunnerTest, ParallelMatchesSequentialBitIdentically) {
  const std::vector<TrialSpec> trials = small_trials();

  // Reference: each trial run inline, in order.
  std::vector<ExperimentResult> sequential;
  for (const TrialSpec& trial : trials) {
    ExperimentRunner runner(trial.layout, trial.config);
    sequential.push_back(runner.run());
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const std::vector<ExperimentResult> results =
        run_trials(trials, threads);
    ASSERT_EQ(results.size(), sequential.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      SCOPED_TRACE("trial " + std::to_string(i) + " threads " +
                   std::to_string(threads));
      expect_identical(results[i], sequential[i]);
    }
  }
}

TEST(TrialRunnerTest, ThreadCountComesFromEnvironment) {
  // DIGS_THREADS pins the worker count; empty or 0 means the hardware.
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t hardware = hw > 0 ? hw : 1;
  for (const auto& [value, expected] :
       {std::pair<const char*, std::size_t>{"3", 3}, {"1", 1}, {"12", 12},
        {"", hardware}, {"0", hardware}}) {
    const ScopedEnv env("DIGS_THREADS", value);
    EXPECT_EQ(trial_threads(), expected) << "DIGS_THREADS='" << value << "'";
  }
}

// Anything but a plain decimal count is rejected loudly, by the same
// parser DIGS_SHARDS uses, instead of running some other worker count.
TEST(TrialRunnerTest, MalformedThreadCountThrows) {
  for (const char* value : {"abc", "-1", "4x", " 4", "+4"}) {
    const ScopedEnv env("DIGS_THREADS", value);
    SCOPED_TRACE(std::string("DIGS_THREADS='") + value + "'");
    try {
      (void)trial_threads();
      ADD_FAILURE() << "no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("DIGS_THREADS"), std::string::npos)
          << e.what();
    }
    EXPECT_THROW((void)run_trials(small_trials(), 0), std::invalid_argument);
  }
}

TEST(TrialRunnerTest, EmptyAndSingleTrialDegenerate) {
  EXPECT_TRUE(run_trials({}, 4).empty());
  const std::vector<TrialSpec> one{small_trials().front()};
  ExperimentRunner runner(one[0].layout, one[0].config);
  const ExperimentResult reference = runner.run();
  const auto results = run_trials(one, 8);
  ASSERT_EQ(results.size(), 1u);
  expect_identical(results[0], reference);
}

}  // namespace
}  // namespace digs
