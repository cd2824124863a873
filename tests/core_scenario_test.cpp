// ScenarioBuilder: the unified assembly path for every experiment.
//
// The builder must be a drop-in for the two legacy construction idioms —
// StackConfig{} and StackConfig::for_mode — field for field (StackConfig's
// operator== is compiler-generated over every nested field), and its
// build()-time validation must reject the contradictory-knob combinations
// that used to surface as hangs or silent no-ops deep inside a run.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/scenario.hpp"
#include "corpus/page_spec.hpp"

namespace eab::core {
namespace {

TEST(ScenarioBuilder, DefaultsMatchDefaultStackConfig) {
  EXPECT_EQ(ScenarioBuilder().build().stack, StackConfig{});
}

TEST(StackConfigEquality, EveryNestedFieldTakesPart) {
  // The defaulted operator== compares every nested field, the metro-only
  // handover knobs included.
  const StackConfig base;
  StackConfig other = base;
  other.rrc.handover_delay += 0.1;
  EXPECT_NE(other, base);
  other = base;
  other.rrc.handover_power += 0.1;
  EXPECT_NE(other, base);
  other = base;
  other.pipeline.viewport.width_px += 1;
  EXPECT_NE(other, base);
  other = base;
  other.outage.reestablish_fail_rate = 0.5;
  EXPECT_NE(other, base);
  other = base;
  other.trace = true;
  EXPECT_NE(other, base);
  EXPECT_EQ(base, StackConfig{});
}

TEST(ScenarioBuilder, ModeMatchesForMode) {
  for (const auto mode : {browser::PipelineMode::kOriginal,
                          browser::PipelineMode::kEnergyAware}) {
    EXPECT_EQ(ScenarioBuilder(mode).build().stack, StackConfig::for_mode(mode));
  }
  // Energy-aware couples fast dormancy on; Original leaves it off.
  EXPECT_TRUE(ScenarioBuilder(browser::PipelineMode::kEnergyAware)
                  .build()
                  .stack.force_idle_at_tx);
  EXPECT_FALSE(ScenarioBuilder(browser::PipelineMode::kOriginal)
                   .build()
                   .stack.force_idle_at_tx);
}

TEST(ScenarioBuilder, DefaultRunParameters) {
  const Scenario scenario = ScenarioBuilder().build();
  EXPECT_DOUBLE_EQ(scenario.reading_window, 20.0);
  EXPECT_EQ(scenario.seed, 1u);
}

TEST(ScenarioBuilder, RunSingleEqualsLegacyFreeFunction) {
  // The fig10 regression in miniature: the builder path and the legacy
  // wrapper must produce bit-identical results.
  const corpus::PageSpec page = corpus::m_cnn_spec();
  for (const auto mode : {browser::PipelineMode::kOriginal,
                          browser::PipelineMode::kEnergyAware}) {
    const SingleLoadResult via_builder =
        ScenarioBuilder(mode).build().run_single(page);
    const SingleLoadResult via_legacy =
        run_single_load(page, StackConfig::for_mode(mode));
    EXPECT_EQ(via_builder.energy.load_j, via_legacy.energy.load_j);
    EXPECT_EQ(via_builder.energy.with_reading_j,
              via_legacy.energy.with_reading_j);
    EXPECT_EQ(via_builder.energy.radio_j, via_legacy.energy.radio_j);
    EXPECT_EQ(via_builder.energy.window_s, via_legacy.energy.window_s);
    EXPECT_EQ(via_builder.sim_events, via_legacy.sim_events);
    EXPECT_EQ(via_builder.dom_signature, via_legacy.dom_signature);
  }
}

TEST(ScenarioBuilder, RejectsZeroEventBudget) {
  EXPECT_THROW(ScenarioBuilder().sim_event_budget(0).build(),
               std::invalid_argument);
}

TEST(ScenarioBuilder, RejectsStallsWithoutWatchdog) {
  net::FaultPlan plan;
  plan.stall_rate = 0.1;
  EXPECT_THROW(ScenarioBuilder().fault_plan(plan).build(),
               std::invalid_argument);
  // Arming the watchdog makes the same plan valid.
  net::RetryPolicy retry;
  retry.request_timeout = 4.0;
  EXPECT_NO_THROW(ScenarioBuilder().fault_plan(plan).retry(retry).build());
}

TEST(ScenarioBuilder, RejectsCacheStormWithoutCache) {
  ChaosDirectives chaos;
  chaos.cache_storm_count = 2;
  EXPECT_THROW(ScenarioBuilder().chaos(chaos).build(), std::invalid_argument);
  EXPECT_NO_THROW(
      ScenarioBuilder().browser_cache(1 << 20).chaos(chaos).build());
}

TEST(ScenarioBuilder, RejectsNonsenseKnobs) {
  EXPECT_THROW(ScenarioBuilder().max_parallel_connections(0).build(),
               std::invalid_argument);
  EXPECT_THROW(ScenarioBuilder().reading_window(-1.0).build(),
               std::invalid_argument);
  ChaosDirectives chaos;
  chaos.abort_at = -2.0;
  EXPECT_THROW(ScenarioBuilder().chaos(chaos).build(), std::invalid_argument);
  net::RetryPolicy retry;
  retry.max_retries = -1;
  EXPECT_THROW(ScenarioBuilder().retry(retry).build(), std::invalid_argument);
}

TEST(ScenarioBuilder, LegacyWrappersValidateToo) {
  // run_single_load routes through build(): the same contradictory config
  // is rejected no matter which entry point assembled it.
  StackConfig config;
  config.sim_event_budget = 0;
  EXPECT_THROW(run_single_load(corpus::m_cnn_spec(), config),
               std::invalid_argument);
}

TEST(ScenarioBuilder, BuildSessionUnifiesRilDirective) {
  ChaosDirectives chaos;
  chaos.ril_socket_failures = 3;
  const SessionConfig session = ScenarioBuilder()
                                    .chaos(chaos)
                                    .build_session(SessionPolicy::kAccurate);
  EXPECT_EQ(session.policy, SessionPolicy::kAccurate);
  EXPECT_EQ(session.stack.chaos.ril_socket_failures, 3);
  EXPECT_EQ(session.stack, ScenarioBuilder().chaos(chaos).build().stack);
}

TEST(EnergyReport, ToJsonIsDeterministicAndExact) {
  EnergyReport report;
  report.load_j = 15.25;
  report.with_reading_j = 27.125;
  report.radio_j = 11.0625;
  report.window_s = 31.5;
  const std::string json =
      "{\"load_j\":15.25,\"with_reading_j\":27.125,\"radio_j\":11.0625,"
      "\"window_s\":31.5}";
  EXPECT_EQ(report.to_json(), json);
  EXPECT_EQ(report.to_json(), report.to_json());
}

TEST(EnergyReport, MeasureIntegratesBothTimelines) {
  PowerTimeline total;
  total.set_power(0.0, 2.0);   // 2 W from t=0
  total.set_power(10.0, 1.0);  // 1 W from t=10
  PowerTimeline radio;
  radio.set_power(0.0, 0.5);
  const EnergyReport report = EnergyReport::measure(total, radio, 10.0, 20.0);
  EXPECT_DOUBLE_EQ(report.load_j, 20.0);
  EXPECT_DOUBLE_EQ(report.with_reading_j, 30.0);
  EXPECT_DOUBLE_EQ(report.radio_j, 10.0);
  EXPECT_DOUBLE_EQ(report.window_s, 20.0);
  EXPECT_THROW(EnergyReport::measure(total, radio, 5.0, 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace eab::core
