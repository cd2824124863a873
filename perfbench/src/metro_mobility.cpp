// metro_mobility: 2x2 metro sweeps over a short users axis, both pipelines,
// on the supervised tier with one worker process and a checkpoint journal.
//
// Every knob that makes the shared-simulator paths work is on: mobility
// (mean dwell 120 s) with hard handover, a hotspot, per-UE coverage
// outages with failing re-establishments, a small connection-loss rate
// with the request watchdog, and telemetry.  Call i sweeps pipeline i%2 on
// metro seed derive_seed(seed, i/2); each sweep point is one sample of the
// per-call host time.
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/checkpoint.hpp"
#include "core/scenario.hpp"
#include "core/supervisor.hpp"
#include "corpus/page_spec.hpp"
#include "metro/metro.hpp"
#include "replay.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace eab;

const std::vector<int> kUsersAxis = {1, 2, 3};  ///< mean UEs homed per cell
constexpr Seconds kHorizon = 120.0;
/// Calls 0 and 1 (both pipelines on the first metro seed) form the digest
/// window.
constexpr std::size_t kDigestCalls = 2;

std::uint64_t hash_metro(const metro::MetroResult& r) {
  Digest d;
  d.u64(r.offered);
  d.u64(r.dropped);
  d.u64(r.completed);
  d.u64(r.aborted);
  d.u64(r.reselects);
  d.u64(r.handovers);
  d.u64(r.handover_drops);
  d.u64(r.sim_events);
  d.f64(r.end_time);
  for (const cell::CellResult& c : r.cells) {
    d.u64(c.grant_overcommits);
    d.u64(c.rlf);
    d.f64(c.mean_busy_grants);
    for (const cell::UeStats& ue : c.per_ue) {
      d.f64(ue.energy.with_reading_j);
      d.f64(ue.total_load_time);
    }
  }
  return d.value();
}

/// Ledger checks on one sweep point; returns an empty string when sound.
std::string check_point(const metro::MetroResult& r) {
  std::uint64_t offered = 0;
  for (const cell::CellResult& c : r.cells) {
    if (c.leaked_flows != 0) return "leaked link flows";
    offered += c.offered;
    for (const cell::UeStats& ue : c.per_ue) {
      if (ue.offered != ue.admitted + ue.dropped) {
        return "offered != admitted + dropped";
      }
    }
  }
  if (offered != r.offered) return "cell ledgers do not sum to the metro's";
  if (r.completed == 0) return "no session completed";
  return {};
}

class MetroMobility : public Workload {
 public:
  MetroMobility(std::uint64_t seed, std::string dir)
      : seed_(seed), dir_(std::move(dir)) {}

  const char* call_name() const override { return "metro.sweep"; }

  void setup() override {
    std::vector<corpus::PageSpec> specs;
    const auto mobile = corpus::mobile_benchmark();
    for (std::size_t b = 0; b < mobile.size(); ++b) {
      specs.push_back(corpus::spec_variants(mobile[b], 2, derive_seed(seed_, b))[1]);
    }
    net::FaultPlan faults;
    faults.connection_loss_rate = 0.02;
    net::RetryPolicy retry;
    retry.request_timeout = 8.0;
    radio::OutagePlan outage;
    outage.count = 2;
    outage.start = 20.0;
    outage.period = 60.0;
    outage.duration = 4.0;
    outage.reestablish_fail_rate = 0.1;
    for (int m = 0; m < 2; ++m) {
      cell::CellConfig cell;
      cell.per_ue = core::ScenarioBuilder(m == 0 ? browser::PipelineMode::kOriginal
                                                 : browser::PipelineMode::kEnergyAware)
                        .fault_plan(faults)
                        .retry(retry)
                        .outage(outage)
                        .build();
      cell.specs = specs;
      cell.users = kUsersAxis.back();
      cell.channels = 6;
      cell.horizon = kHorizon;
      cell.telemetry_tick = 5.0;
      base_[m] = metro::MetroBuilder()
                     .grid(2, 2)
                     .cell(cell)
                     .mean_dwell(120.0)
                     .hotspot(0.5)
                     .policy(metro::HandoverPolicy::kHard)
                     .build();
    }
    // Reference for verify(): the digest window's points in-process.
    reference_.clear();
    for (std::size_t i = 0; i < kDigestCalls; ++i) {
      for (const int users : kUsersAxis) {
        metro::MetroConfig point = config(i);
        point.cell.users = users;
        reference_.push_back(
            metro::serialize_metro_result(metro::run_metro(point)));
      }
    }
  }

  void begin_loop() override {
    window_.clear();
    totals_ = {};
  }

  metro::MetroConfig config(std::size_t i) const {
    metro::MetroConfig c = base_[i % 2];
    c.cell.cell_seed = derive_seed(seed_, i / 2);
    return c;
  }

  CallResult call(std::size_t i) override {
    const metro::MetroConfig base = config(i);
    core::SupervisorConfig sup;
    sup.workers = 1;
    // A worker joins its heartbeat thread after the shard, so completion
    // waits out the thread's current sleep: up to one interval per point
    // (see perfbench/README.md).  10 ms keeps that visible but small next
    // to a ~250 ms point, instead of quantizing every sample to 100 ms.
    sup.heartbeat_interval = 0.01;
    sup.checkpoint_path = dir_ + "/sweep.journal";
    sup.fingerprint = "perfbench metro_mobility call " + std::to_string(i);
    std::remove(sup.checkpoint_path.c_str());  // every sweep starts cold
    core::Supervisor supervisor(sup);

    CallResult out;
    Digest digest;
    std::string problem;
    Clock::time_point last = Clock::now();
    const core::SupervisorReport report = metro::run_metro_sweep(
        base, kUsersAxis, core::SweepExecution::supervised(supervisor),
        [&](std::size_t, const metro::MetroResult& r) {
          const Clock::time_point now = Clock::now();
          out.sample_ms.push_back(seconds_between(last, now) * 1e3);
          last = now;
          const std::string bad = check_point(r);
          if (problem.empty() && !bad.empty()) problem = bad;
          digest.u64(hash_metro(r));
          out.loads += static_cast<double>(r.completed);
          out.sim_s += r.total_users * r.end_time;
          count(r);
          if (i < kDigestCalls) window_.push_back(r);
        });
    std::remove(sup.checkpoint_path.c_str());
    if (!report.ok() || report.completed != kUsersAxis.size()) {
      throw std::runtime_error("supervised sweep failed: " + report.summary());
    }
    if (!problem.empty()) throw std::runtime_error(problem);
    out.hash = digest.value();
    return out;
  }

  std::size_t digest_calls() const override { return kDigestCalls; }
  std::uint64_t seed1_digest() const override { return 0x2dadb168c106aa7cULL; }

  void verify(const LoopStats&, Outcome& outcome) override {
    // Supervised results must be byte-identical to the in-process runs.
    for (std::size_t k = 0; k < reference_.size(); ++k) {
      outcome.attempt(k < window_.size() &&
                          metro::serialize_metro_result(window_[k]) == reference_[k],
                      "supervised metro point " + std::to_string(k) +
                          " differs from run_metro");
    }
  }

  void replay(const LoopStats& traced, SpanRecorder& spans,
              std::vector<Metric>& layer) override {
    // Codec and journal over the window's results, as the supervised tier
    // and the checkpoint journal move them.
    std::vector<std::string> payloads;
    double bytes = 0;
    Clock::time_point t0 = Clock::now();
    {
      auto scope = spans.span("codec.metro_encode");
      for (const auto& r : window_) {
        payloads.push_back(metro::serialize_metro_result(r));
        bytes += static_cast<double>(payloads.back().size());
      }
    }
    const double encode_ms = seconds_between(t0, Clock::now()) * 1e3;
    t0 = Clock::now();
    std::vector<metro::MetroResult> decoded;
    {
      auto scope = spans.span("codec.metro_decode");
      for (const auto& p : payloads) decoded.push_back(metro::deserialize_metro_result(p));
    }
    const double decode_ms = seconds_between(t0, Clock::now()) * 1e3;
    for (std::size_t k = 0; k < decoded.size(); ++k) {
      if (hash_metro(decoded[k]) != hash_metro(window_[k])) {
        throw std::runtime_error("metro codec round trip changed a result");
      }
    }
    const std::string journal_path = dir_ + "/replay.journal";
    std::remove(journal_path.c_str());
    t0 = Clock::now();
    {
      core::CheckpointJournal journal(journal_path);
      auto scope = spans.span("journal.append");
      for (std::size_t k = 0; k < payloads.size(); ++k) {
        journal.append(core::Supervisor::kRecordShardResult,
                       core::Supervisor::encode_shard_payload(k, payloads[k]));
      }
    }
    const double journal_ms = seconds_between(t0, Clock::now()) * 1e3;
    std::remove(journal_path.c_str());
    const double n = std::max<double>(1.0, static_cast<double>(payloads.size()));
    layer.push_back({"codec.metro_bytes", bytes, "bytes"});
    layer.push_back({"codec.metro_encode_ms", encode_ms / n, "ms"});
    layer.push_back({"codec.metro_decode_ms", decode_ms / n, "ms"});
    layer.push_back({"journal.append_ms", journal_ms / n, "ms"});

    // Page layers over the session mix: each spec once per pipeline.  The
    // metro does not say which page each session drew, so the share scales
    // the replayed loads' JS time to the window's completed sessions.
    std::uint64_t js_ops = 0;
    const auto& specs = base_[0].cell.specs;
    for (std::size_t k = 0; k < specs.size(); ++k) {
      const std::uint64_t seed = derive_seed(seed_, k);
      net::WebServer server;
      const std::string url = host_page(specs[k], seed, server, spans);
      for (const bool ea : {false, true}) {
        js_ops += replay_load(server, url, seed, ea, spans);
      }
    }
    double window_loads = 0;
    for (const auto& r : window_) window_loads += static_cast<double>(r.completed);
    const double replayed = 2.0 * static_cast<double>(specs.size());
    add_page_layer_metrics(spans, js_ops,
                           window_loads > 0 ? traced.window_ms * replayed / window_loads
                                            : 0,
                           layer);
  }

  void layer_counts(const LoopStats& loop, std::vector<Metric>& layer) override {
    layer.push_back({"sim.events_fired", totals_.events, "count"});
    layer.push_back({"sim.wall_ns_per_event",
                     totals_.events > 0 ? loop.wall_s * 1e9 / totals_.events : 0,
                     "ns"});
    layer.push_back({"net.retries", totals_.retries, "count"});
    layer.push_back({"radio.rlf", totals_.rlf, "count"});
    layer.push_back({"cell.grant_overcommits", totals_.overcommits, "count"});
    layer.push_back({"metro.handovers", totals_.handovers, "count"});
    layer.push_back({"metro.reselects", totals_.reselects, "count"});
  }

  std::vector<std::string> headline() const override {
    // Window points come in (original, energy-aware) pairs over the same
    // metro seeds and users axis.
    double joules[2] = {0, 0};
    for (std::size_t k = 0; k < window_.size(); ++k) {
      for (const cell::CellResult& c : window_[k].cells) {
        for (const cell::UeStats& ue : c.per_ue) {
          joules[(k / kUsersAxis.size()) % 2] += ue.energy.with_reading_j;
        }
      }
    }
    char line[256];
    std::snprintf(line, sizeof line,
                  "UE energy saving under mobility and faults, energy-aware "
                  "against original: %.1f %%",
                  joules[0] > 0 ? 100 * (joules[0] - joules[1]) / joules[0] : 0);
    return {line};
  }

 private:
  struct Totals {
    double events = 0;
    double retries = 0;
    double rlf = 0;
    double overcommits = 0;
    double handovers = 0;
    double reselects = 0;
  };

  void count(const metro::MetroResult& r) {
    totals_.events += static_cast<double>(r.sim_events);
    totals_.handovers += static_cast<double>(r.handovers);
    totals_.reselects += static_cast<double>(r.reselects);
    for (const cell::CellResult& c : r.cells) {
      totals_.rlf += static_cast<double>(c.rlf);
      totals_.overcommits += static_cast<double>(c.grant_overcommits);
      if (c.telemetry) {
        // cell.retries is a running count: its series maximum is the total.
        if (const obs::TimeSeries* s = c.telemetry->find("cell.retries")) {
          double peak = 0;
          for (const auto& p : s->points()) peak = std::max(peak, p.max);
          totals_.retries += peak;
        }
      }
    }
  }

  std::uint64_t seed_;
  std::string dir_;
  metro::MetroConfig base_[2];
  std::vector<metro::MetroResult> window_;  ///< points of the digest window
  std::vector<std::string> reference_;  ///< window points, run in-process
  Totals totals_;
};

}  // namespace

std::unique_ptr<Workload> make_metro_mobility(std::uint64_t seed,
                                              const std::string& scratch_dir) {
  return std::make_unique<MetroMobility>(seed, scratch_dir);
}

}  // namespace perfbench
