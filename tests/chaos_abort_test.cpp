// User-abort robustness: abort a load at every fetch-settle boundary (plus
// one mid-first-fetch instant) under both pipelines and assert the teardown
// leaves no residue anywhere in the stack — no queued or in-flight fetches,
// no live link flows, no leaked RRC transfer markers — and that the trace
// auditor accepts the partial recording, energy reconciliation included.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "browser/cpu.hpp"
#include "browser/pipeline.hpp"
#include "core/ril.hpp"
#include "corpus/generator.hpp"
#include "net/http_client.hpp"
#include "net/shared_link.hpp"
#include "net/web_server.hpp"
#include "obs/audit.hpp"
#include "obs/trace.hpp"
#include "radio/rrc.hpp"
#include "sim/simulator.hpp"

namespace eab {
namespace {

corpus::PageSpec abort_spec() {
  corpus::PageSpec spec;
  spec.site = "abort.example";
  spec.mobile = false;
  spec.html_bytes = kilobytes(10);
  spec.css_files = 2;
  spec.css_bytes = kilobytes(3);
  spec.css_images = 2;
  spec.css_image_bytes = kilobytes(2);
  spec.js_files = 2;
  spec.js_bytes = kilobytes(2);
  spec.js_busy_iterations = 300;
  spec.js_images = 1;
  spec.js_image_bytes = kilobytes(2);
  spec.html_images = 6;
  spec.image_bytes = kilobytes(4);
  spec.anchors = 6;
  spec.paragraphs = 8;
  return spec;
}

/// The full single-load stack, held open so the test can inspect every
/// layer after teardown.
struct Stack {
  sim::Simulator sim;
  net::WebServer server;
  radio::RrcConfig rrc_config;
  radio::RadioPowerModel power;
  radio::LinkConfig link_config;
  radio::RrcMachine rrc;
  net::SharedLink link;
  net::HttpClient client;
  browser::CpuScheduler cpu;
  core::RilStateSwitcher ril;
  obs::TraceRecorder trace;
  browser::PageLoad load;
  std::string url;
  int done_count = 0;
  browser::LoadMetrics metrics;

  explicit Stack(browser::PipelineMode mode)
      : rrc(sim, rrc_config, power),
        link(sim, link_config.dch_bandwidth),
        client(sim, server, link, rrc, link_config),
        cpu(sim, power.cpu_busy_extra),
        ril(sim, rrc),
        load(sim, client, cpu,
             [mode] {
               browser::PipelineConfig config;
               config.mode = mode;
               return config;
             }(),
             1234) {
    corpus::PageGenerator generator(1);
    url = generator.host_page(abort_spec(), server);
    if (mode == browser::PipelineMode::kEnergyAware) {
      load.set_on_transmission_complete([this] { ril.request_idle(); });
    }
    rrc.set_trace(&trace);
    link.set_trace(&trace);
    client.set_trace(&trace);
    ril.set_trace(&trace);
    load.set_trace(&trace);
  }

  void start() {
    load.start(url, [this](const browser::LoadMetrics& m) {
      ++done_count;
      metrics = m;
    });
  }

  void run_to_done() {
    while (done_count == 0 && sim.step()) {
    }
    ASSERT_EQ(done_count, 1);
  }
};

/// Abort instants for one mode: just inside the first fetch, then a hair
/// after every distinct fetch-settle time of a clean reference run.
const std::vector<Seconds>& boundaries_for(browser::PipelineMode mode) {
  static std::map<browser::PipelineMode, std::vector<Seconds>> cache;
  auto it = cache.find(mode);
  if (it != cache.end()) return it->second;

  Stack reference(mode);
  reference.start();
  reference.run_to_done();
  std::vector<Seconds> times = {0.05};
  for (const obs::TraceEvent& e : reference.trace.events()) {
    if (e.kind == obs::TraceKind::kHttpFetchSettled) {
      times.push_back(e.t + 1e-6);
    }
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return cache.emplace(mode, std::move(times)).first->second;
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
    stack.sim.schedule_at(abort_at, [&stack] { stack.load.abort(); });
    stack.run_to_done();

    // Clean teardown across every layer, aborted or (for the last
    // boundaries, where the load wins the race) completed.
    EXPECT_EQ(stack.client.queued(), 0u);
    EXPECT_EQ(stack.client.in_flight(), 0);
    EXPECT_EQ(stack.link.active_flows(), 0u);
    EXPECT_EQ(stack.rrc.active_transfers(), 0);
    if (stack.metrics.aborted) {
      EXPECT_NEAR(stack.metrics.aborted_at, abort_at, 1e-9);
      EXPECT_NEAR(stack.metrics.final_display, abort_at, 1e-9);
      EXPECT_LE(stack.metrics.first_display, stack.metrics.final_display);
    } else {
      EXPECT_LE(stack.metrics.final_display, abort_at + 1e-9)
          << "an unaborted load must have finished before the abort";
    }
    EXPECT_EQ(stack.done_count, 1) << "done must fire exactly once";

    // Let the radio timers drain, then replay the partial trace through
    // the cross-layer auditor: marker balance, queued==settled and energy
    // reconciliation must all hold on the truncated event stream.
    const Seconds t_end = stack.metrics.final_display + 25.0;
    stack.sim.run_until(t_end);
    obs::AuditInputs inputs;
    inputs.rrc = stack.rrc_config;
    inputs.power = stack.power;
    inputs.max_retries = stack.client.retry_policy().max_retries;
    inputs.radio_energy = stack.rrc.power().energy(0.0, t_end);
    inputs.t_end = t_end;
    const obs::AuditReport report =
        obs::TraceAuditor().audit(stack.trace, inputs);
    EXPECT_TRUE(report.ok())
        << "mode=" << static_cast<int>(mode) << " abort_at=" << abort_at
        << "\n" << report.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(EveryFetchBoundary, AbortAtBoundary,
                         ::testing::Range(0, kOriginalBoundaries));

TEST(AbortBasics, AbortBeforeStartAndAfterFinishAreNoOps) {
  Stack stack(browser::PipelineMode::kOriginal);
  EXPECT_FALSE(stack.load.abort()) << "never-started load";
  stack.start();
  stack.run_to_done();
  EXPECT_FALSE(stack.load.abort()) << "already-finished load";
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
  stack.sim.schedule_at(abort_at, [&stack] { stack.load.abort(); });
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
