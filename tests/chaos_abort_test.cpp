// User-abort robustness: abort a load at every fetch-settle boundary (plus
// one mid-first-fetch instant) under both pipelines and assert the teardown
// leaves no residue anywhere in the stack — no queued or in-flight fetches,
// no live link flows, no leaked RRC transfer markers — and that the trace
// auditor accepts the partial recording, energy reconciliation included.

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "load_rig.hpp"

namespace eab {
namespace {

struct Stack : LoadRig {
  explicit Stack(browser::PipelineMode mode)
      : LoadRig(mode, boundary_spec("abort.example")) {}
};

const std::vector<Seconds>& boundaries_for(browser::PipelineMode mode) {
  return fetch_boundaries<Stack>(mode);
}

/// Distinct boundaries boundaries_for() records in each mode.  The case
/// list below is sized from them, and HasEveryFetchBoundary pins them, so
/// the fixture cannot lose a boundary without a failing test.
constexpr int kOriginalBoundaries = 18;
constexpr int kEnergyAwareBoundaries = 17;

int expected_boundaries(browser::PipelineMode mode) {
  return mode == browser::PipelineMode::kOriginal ? kOriginalBoundaries
                                                  : kEnergyAwareBoundaries;
}

TEST(AbortFixture, HasEveryFetchBoundary) {
  for (const browser::PipelineMode mode :
       {browser::PipelineMode::kOriginal, browser::PipelineMode::kEnergyAware}) {
    EXPECT_EQ(boundaries_for(mode).size(),
              static_cast<std::size_t>(expected_boundaries(mode)))
        << "mode=" << static_cast<int>(mode);
  }
}

class AbortAtBoundary : public ::testing::TestWithParam<int> {};

TEST_P(AbortAtBoundary, TeardownLeavesNoResidue) {
  const int index = GetParam();
  for (const browser::PipelineMode mode :
       {browser::PipelineMode::kOriginal, browser::PipelineMode::kEnergyAware}) {
    // The last case lies past the energy-aware run's boundaries; it covers
    // the Original pipeline only.
    if (index >= expected_boundaries(mode)) continue;
    const std::vector<Seconds>& boundaries = boundaries_for(mode);
    ASSERT_LT(static_cast<std::size_t>(index), boundaries.size());
    const Seconds abort_at = boundaries[static_cast<std::size_t>(index)];

    Stack stack(mode);
    stack.start();
    stack.sim.schedule_at(abort_at, [&stack] { stack.load->abort(); });
    stack.run_to_done();

    // Clean teardown across every layer, aborted or (for the last
    // boundaries, where the load wins the race) completed.
    char context[96];
    std::snprintf(context, sizeof context, "mode=%d abort_at=%.6f",
                  static_cast<int>(mode), abort_at);
    stack.expect_no_residue(context);
    if (stack.metrics.aborted) {
      EXPECT_NEAR(stack.metrics.aborted_at, abort_at, 1e-9);
      EXPECT_NEAR(stack.metrics.final_display, abort_at, 1e-9);
      EXPECT_LE(stack.metrics.first_display, stack.metrics.final_display);
    } else {
      EXPECT_LE(stack.metrics.final_display, abort_at + 1e-9)
          << "an unaborted load must have finished before the abort";
    }

    // Let the radio timers drain, then replay the partial trace through
    // the cross-layer auditor: marker balance, queued==settled and energy
    // reconciliation must all hold on the truncated event stream.
    const obs::AuditReport report =
        stack.drain_and_audit(stack.metrics.final_display + 25.0);
    EXPECT_TRUE(report.ok()) << context << "\n" << report.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(EveryFetchBoundary, AbortAtBoundary,
                         ::testing::Range(0, kOriginalBoundaries));

TEST(AbortBasics, AbortBeforeStartAndAfterFinishAreNoOps) {
  Stack stack(browser::PipelineMode::kOriginal);
  EXPECT_FALSE(stack.load->abort()) << "never-started load";
  stack.start();
  stack.run_to_done();
  EXPECT_FALSE(stack.load->abort()) << "already-finished load";
  EXPECT_EQ(stack.done_count, 1);
  EXPECT_FALSE(stack.metrics.aborted);
}

TEST(AbortBasics, AbortedMetricsAccountPartialWork) {
  // Abort just after the second fetch settles: the document body has landed
  // (bytes > 0) and the discovered sub-resources are still queued/in-flight,
  // so abort() tears them down and books them as failed.
  const std::vector<Seconds>& boundaries =
      boundaries_for(browser::PipelineMode::kOriginal);
  ASSERT_GE(boundaries.size(), 3u);
  const Seconds abort_at = boundaries[2];

  Stack stack(browser::PipelineMode::kOriginal);
  stack.start();
  stack.sim.schedule_at(abort_at, [&stack] { stack.load->abort(); });
  stack.run_to_done();
  ASSERT_TRUE(stack.metrics.aborted);
  // Partial accounting: whatever settled before the abort is preserved and
  // the torn-down fetches are counted as failed resources.
  EXPECT_GE(stack.metrics.objects_fetched, 1);
  EXPECT_GT(stack.metrics.bytes_fetched, 0u);
  EXPECT_GE(stack.metrics.failed_resources, 1)
      << "fetches in flight at the abort settle as failed (kAborted)";
  EXPECT_NEAR(stack.metrics.total_time(), abort_at, 1e-9);
}

}  // namespace
}  // namespace eab
