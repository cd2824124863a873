#include "core/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace eab::core {
namespace {

struct SessionFixture : ::testing::Test {
  corpus::PageSpec mobile = corpus::m_cnn_spec();
  corpus::PageSpec full = corpus::espn_sports_spec();

  std::vector<PageVisit> visits() {
    return {{&mobile, 25.0}, {&full, 40.0}, {&mobile, 8.0}, {&mobile, 3.0}};
  }

  SessionResult run(SessionPolicy policy, Seconds threshold = 9.0,
                    const gbrt::GbrtModel* model = nullptr) {
    SessionConfig config;
    config.policy = policy;
    config.threshold = threshold;
    config.predictor.model = model;
    return run_session(visits(), config, 1);
  }
};

TEST_F(SessionFixture, BaselineRunsAllPages) {
  const SessionResult result = run(SessionPolicy::kBaseline);
  EXPECT_EQ(result.pages, 4);
  EXPECT_EQ(result.switches_to_idle, 0);
  EXPECT_EQ(result.page_load_times.size(), 4u);
  EXPECT_GT(result.energy.with_reading_j, 0.0);
  EXPECT_GT(result.energy.window_s, 25 + 40 + 8 + 3);
}

TEST_F(SessionFixture, AlwaysOffSwitchesEveryPage) {
  const SessionResult result = run(SessionPolicy::kOriginalAlwaysOff);
  EXPECT_EQ(result.switches_to_idle, 4);
}

TEST_F(SessionFixture, AccurateSwitchesOnlyLongReads) {
  // Threshold 9 s: pages read for 25 s and 40 s qualify; 8 s and 3 s do not.
  const SessionResult result = run(SessionPolicy::kAccurate, 9.0);
  EXPECT_EQ(result.switches_to_idle, 2);
  // Threshold 20 s: only 25 s and 40 s still qualify.
  EXPECT_EQ(run(SessionPolicy::kAccurate, 20.0).switches_to_idle, 2);
  // Threshold 30 s: only the 40 s read.
  EXPECT_EQ(run(SessionPolicy::kAccurate, 30.0).switches_to_idle, 1);
}

TEST_F(SessionFixture, PredictUsesModel) {
  // A constant model predicting 100 s switches on every page read past
  // alpha; one predicting 1 s never switches.
  const auto always = gbrt::GbrtModel::assemble(std::log(100.0), 1.0, {});
  const auto never = gbrt::GbrtModel::assemble(std::log(1.0), 1.0, {});
  // Reads above alpha = 2 s: 25, 40, 8 (3 s also above). All four predict.
  EXPECT_EQ(run(SessionPolicy::kPredict, 9.0, &always).switches_to_idle, 4);
  EXPECT_EQ(run(SessionPolicy::kPredict, 9.0, &never).switches_to_idle, 0);
}

TEST_F(SessionFixture, PredictRequiresModel) {
  SessionConfig config;
  config.policy = SessionPolicy::kPredict;
  EXPECT_THROW(run_session(visits(), config, 1), std::invalid_argument);
}

TEST_F(SessionFixture, NullSpecRejected) {
  SessionConfig config;
  std::vector<PageVisit> bad = {{nullptr, 5.0}};
  EXPECT_THROW(run_session(bad, config, 1), std::invalid_argument);
}

TEST_F(SessionFixture, EnergyAwarePoliciesUseLessEnergyThanBaseline) {
  const SessionResult baseline = run(SessionPolicy::kBaseline);
  const SessionResult ea_off = run(SessionPolicy::kEnergyAwareAlwaysOff);
  const SessionResult accurate = run(SessionPolicy::kAccurate, 9.0);
  EXPECT_LT(ea_off.energy.with_reading_j, baseline.energy.with_reading_j);
  EXPECT_LT(accurate.energy.with_reading_j, baseline.energy.with_reading_j);
}

TEST_F(SessionFixture, ReorganizedPipelineLoadsFaster) {
  const SessionResult baseline = run(SessionPolicy::kBaseline);
  const SessionResult accurate = run(SessionPolicy::kAccurate, 20.0);
  EXPECT_LT(accurate.total_load_delay, baseline.total_load_delay);
}

TEST_F(SessionFixture, EagerSwitchingCostsDelayOnQuickFollowups) {
  // Visits with short reads: always-off pays the IDLE->DCH promotion on
  // every next click, the timer-driven baseline does not.
  std::vector<PageVisit> quick = {{&mobile, 3.0}, {&mobile, 3.0},
                                  {&mobile, 3.0}, {&mobile, 3.0}};
  SessionConfig baseline_config;
  baseline_config.policy = SessionPolicy::kBaseline;
  SessionConfig eager_config;
  eager_config.policy = SessionPolicy::kOriginalAlwaysOff;
  const SessionResult baseline = run_session(quick, baseline_config, 1);
  const SessionResult eager = run_session(quick, eager_config, 1);
  EXPECT_GT(eager.total_load_delay, baseline.total_load_delay + 2.0);
}

TEST_F(SessionFixture, DeterministicForSeed) {
  const SessionResult a = run(SessionPolicy::kAccurate, 9.0);
  const SessionResult b = run(SessionPolicy::kAccurate, 9.0);
  EXPECT_DOUBLE_EQ(a.energy.with_reading_j, b.energy.with_reading_j);
  EXPECT_DOUBLE_EQ(a.total_load_delay, b.total_load_delay);
}

TEST_F(SessionFixture, CacheStormBetweenVisitsForcesARefetch) {
  // One page visited twice: without a storm the second visit serves its
  // subresources from the browser cache; a storm during the reading gap
  // empties the cache, so the second visit fetches everything again.
  const std::vector<PageVisit> twice = {{&full, 30.0}, {&full, 5.0}};
  SessionConfig config;
  config.stack.use_browser_cache = true;
  obs::TraceRecorder calm_trace;
  config.trace = &calm_trace;
  const SessionResult calm = run_session(twice, config, 1);

  config.stack.chaos.cache_storm_count = 1;
  config.stack.chaos.cache_storm_start = calm.page_load_times[0] + 10.0;
  obs::TraceRecorder stormy_trace;
  config.trace = &stormy_trace;
  const SessionResult stormy = run_session(twice, config, 1);

  const auto cache_hits = [](const obs::TraceRecorder& trace) {
    return std::count_if(trace.events().begin(), trace.events().end(),
                         [](const obs::TraceEvent& e) {
                           return e.kind == obs::TraceKind::kHttpCacheHit;
                         });
  };
  EXPECT_GT(cache_hits(calm_trace), 0);
  EXPECT_EQ(cache_hits(stormy_trace), 0);
  EXPECT_DOUBLE_EQ(stormy.page_load_times[0], calm.page_load_times[0]);
  EXPECT_GT(stormy.page_load_times[1], calm.page_load_times[1]);
}

TEST_F(SessionFixture, EmptySessionIsHarmless) {
  SessionConfig config;
  const SessionResult result = run_session({}, config, 1);
  EXPECT_EQ(result.pages, 0);
  EXPECT_DOUBLE_EQ(result.energy.with_reading_j, 0.0);
}

TEST_F(SessionFixture, Algorithm2PowerDrivenSwitchesAboveTp) {
  // A constant predictor of 12 s: above Tp=9 but below Td=20 — the
  // power-driven mode switches, the delay-driven mode does not.
  const auto model = gbrt::GbrtModel::assemble(std::log(12.0), 1.0, {});
  SessionConfig config;
  config.policy = SessionPolicy::kAlgorithm2;
  config.predictor.model = &model;
  config.controller.mode = DecisionMode::kPowerDriven;
  const auto power_driven = run_session(visits(), config, 1);
  // Reads above alpha: all four -> four predictions, all 12 s > Tp.
  EXPECT_EQ(power_driven.switches_to_idle, 4);

  config.controller.mode = DecisionMode::kDelayDriven;
  const auto delay_driven = run_session(visits(), config, 1);
  EXPECT_EQ(delay_driven.switches_to_idle, 0);
}

TEST_F(SessionFixture, Algorithm2RespectsTdInBothModes) {
  const auto model = gbrt::GbrtModel::assemble(std::log(25.0), 1.0, {});
  SessionConfig config;
  config.policy = SessionPolicy::kAlgorithm2;
  config.predictor.model = &model;
  config.controller.mode = DecisionMode::kDelayDriven;
  // 25 s > Td = 20 s: even the delay-driven mode switches.
  EXPECT_EQ(run_session(visits(), config, 1).switches_to_idle, 4);
}

TEST_F(SessionFixture, Algorithm2RequiresModel) {
  SessionConfig config;
  config.policy = SessionPolicy::kAlgorithm2;
  EXPECT_THROW(run_session(visits(), config, 1), std::invalid_argument);
}

TEST(SessionPolicyNames, AllDistinct) {
  EXPECT_STREQ(to_string(SessionPolicy::kBaseline), "Original");
  EXPECT_STREQ(to_string(SessionPolicy::kAccurate), "Accurate");
  EXPECT_STREQ(to_string(SessionPolicy::kPredict), "Predict");
  EXPECT_STREQ(to_string(SessionPolicy::kAlgorithm2), "Algorithm-2");
}

}  // namespace
}  // namespace eab::core
