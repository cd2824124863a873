// One page load on the production phone stack (core::UeStack), held open
// so a boundary test can disturb it at any instant and inspect every layer
// after teardown.  Shared by the abort and radio-outage boundary matrices.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/ue_stack.hpp"
#include "corpus/generator.hpp"
#include "obs/audit.hpp"

namespace eab {

/// A small full-version page with every resource kind.  The site name
/// seeds the generated page, so each matrix keeps its own.
inline corpus::PageSpec boundary_spec(const char* site) {
  corpus::PageSpec spec;
  spec.site = site;
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

struct LoadRig {
  sim::Simulator sim;
  net::WebServer server;
  core::StackConfig config;
  obs::TraceRecorder trace;
  core::UeStack ue;
  std::unique_ptr<net::HttpClient> client;
  std::unique_ptr<browser::PageLoad> load;
  std::string url;
  int done_count = 0;
  browser::LoadMetrics metrics;

  /// `coverage_driven` builds the outage injector (with a disabled plan, so
  /// nothing is scheduled) for the test to drive by hand.
  LoadRig(browser::PipelineMode mode, const corpus::PageSpec& spec,
          bool coverage_driven = false)
      : config(core::StackConfig::for_mode(mode)),
        ue(sim, config,
           core::UePlans{config.fault_plan, config.outage, 0, coverage_driven},
           &trace),
        client(ue.make_client(server)),
        load(ue.make_load(*client, config.pipeline, 1234,
                          config.force_idle_at_tx)) {
    url = corpus::PageGenerator(1).host_page(spec, server);
  }

  void start() {
    load->start(url, [this](const browser::LoadMetrics& m) {
      ++done_count;
      metrics = m;
    });
  }

  void run_to_done() {
    while (done_count == 0 && sim.step()) {
    }
    ASSERT_EQ(done_count, 1);
  }

  /// No queued or in-flight fetch, live link flow or RRC transfer marker
  /// is left, and the load reported exactly once.
  void expect_no_residue(const std::string& context) const {
    EXPECT_EQ(client->queued(), 0u) << context;
    EXPECT_EQ(client->in_flight(), 0) << context;
    EXPECT_EQ(ue.link.active_flows(), 0u) << context;
    EXPECT_EQ(ue.rrc.active_transfers(), 0) << context;
    EXPECT_EQ(done_count, 1) << context << ": done must fire exactly once";
  }

  /// Lets the radio timers run to `t_end`, then replays the recording
  /// through the cross-layer auditor.
  obs::AuditReport drain_and_audit(Seconds t_end) {
    sim.run_until(t_end);
    obs::AuditInputs inputs;
    inputs.rrc = config.rrc;
    inputs.power = config.power;
    inputs.max_retries = client->retry_policy().max_retries;
    inputs.radio_energy = ue.rrc.power().energy(0.0, t_end);
    inputs.t_end = t_end;
    return obs::TraceAuditor().audit(trace, inputs);
  }
};

/// Instants for one mode: just inside the first fetch, then a hair after
/// every distinct fetch-settle time of a clean reference run of `Rig`
/// (computed once per mode).
template <class Rig>
const std::vector<Seconds>& fetch_boundaries(browser::PipelineMode mode) {
  static std::map<browser::PipelineMode, std::vector<Seconds>> cache;
  auto it = cache.find(mode);
  if (it != cache.end()) return it->second;

  Rig reference(mode);
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

}  // namespace eab
