// reading_sessions: multi-page browsing sessions from trace::TraceGenerator
// through core::run_session under Baseline, Accurate-9 and Predict-9.
//
// Set-up is the Fig 16 pipeline: build the page library (one EA load per
// page variant through a one-thread BatchRunner), generate the population's
// browsing trace, and train the 250-tree GBRT on the alpha-filtered
// log-dwell data.  Each user's trace is then cut into short sessions of
// consecutive page views; call i runs session i mod S under a policy that
// rotates from pass to pass.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>

#include "core/batch.hpp"
#include "core/session.hpp"
#include "corpus/page_spec.hpp"
#include "gbrt/model.hpp"
#include "replay.hpp"
#include "trace/reading_model.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace eab;

constexpr int kVariantsPerSite = 3;
constexpr std::uint64_t kLibrarySeed = 7;
constexpr int kUsers = 48;
constexpr Seconds kBrowsingPerUser = 300.0;
constexpr std::size_t kVisitsPerSession = 6;
constexpr Seconds kThreshold = 9.0;
/// Calls 0..23 (sessions 0..23, one policy each) form the digest window.
constexpr std::size_t kDigestCalls = 24;
/// Sessions 0..5 run under all three policies for the headline.
constexpr std::size_t kHeadlineSessions = 6;
constexpr core::SessionPolicy kPolicies[] = {core::SessionPolicy::kBaseline,
                                             core::SessionPolicy::kAccurate,
                                             core::SessionPolicy::kPredict};

std::uint64_t hash_session(const core::SessionResult& r) {
  Digest d;
  d.f64(r.energy.load_j);
  d.f64(r.energy.with_reading_j);
  d.f64(r.energy.radio_j);
  d.f64(r.energy.window_s);
  d.f64(r.total_load_delay);
  d.f64(r.radio_idle_time);
  d.u64(static_cast<std::uint64_t>(r.pages));
  d.u64(static_cast<std::uint64_t>(r.switches_to_idle));
  for (const Seconds t : r.page_load_times) d.f64(t);
  return d.value();
}

class ReadingSessions : public Workload {
 public:
  explicit ReadingSessions(std::uint64_t seed) : seed_(seed) {}

  const char* call_name() const override { return "core.run_session"; }

  void setup() override {
    // Page library: every Table-3 site in jittered variants, features
    // measured by one energy-aware load each.  The library is a fixed
    // corpus (seed kLibrarySeed, as the figure harnesses build it); the
    // users browsing it come from the workload seed.
    std::vector<trace::PageRecord> records;
    const auto add = [&](const std::vector<corpus::PageSpec>& specs) {
      for (const auto& base : specs) {
        for (const auto& spec : corpus::spec_variants(
                 base, kVariantsPerSite, kLibrarySeed ^ records.size())) {
          records.push_back(trace::PageRecord{spec, {}});
        }
      }
    };
    add(corpus::mobile_benchmark());
    add(corpus::full_benchmark());
    const core::StackConfig ea =
        core::StackConfig::for_mode(browser::PipelineMode::kEnergyAware);
    std::vector<core::BatchJob> jobs;
    for (const auto& record : records) {
      jobs.push_back(core::BatchJob{record.spec, ea, 0.0, kLibrarySeed});
    }
    core::BatchRunner runner(1);
    const auto loads = runner.run(jobs);
    if (!runner.last_errors().empty()) {
      throw std::runtime_error("page library load failed: " +
                               runner.last_errors()[0].what);
    }
    for (std::size_t i = 0; i < records.size(); ++i) {
      records[i].features = loads[i].features;
    }
    library_metrics_ = runner.metrics();

    Clock::time_point t0 = Clock::now();
    trace::TraceConfig config;
    config.users = kUsers;
    config.browsing_per_user = kBrowsingPerUser;
    generator_ = std::make_unique<trace::TraceGenerator>(std::move(records),
                                                         config, seed_);
    const auto views = generator_->generate();
    trace_generate_ms_.push_back(seconds_between(t0, Clock::now()) * 1e3);

    t0 = Clock::now();
    gbrt::GbrtParams params;
    params.trees = 250;
    params.tree.max_leaves = 8;
    model_ = gbrt::train_gbrt(
        trace::to_log_dataset(views, generator_->records(), 2.0), params, 3);
    gbrt_train_s_.push_back(seconds_between(t0, Clock::now()));

    // Cut each user's views into sessions of consecutive visits, ordered
    // round-robin over users so any prefix mixes every user's interests.
    std::vector<std::vector<core::PageVisit>> per_user(kUsers);
    for (const auto& view : views) {
      per_user[static_cast<std::size_t>(view.user)].push_back(core::PageVisit{
          &generator_->records()[view.page_index].spec, view.reading_time});
    }
    sessions_.clear();
    for (std::size_t at = 0;; at += kVisitsPerSession) {
      const std::size_t before = sessions_.size();
      for (const auto& visits : per_user) {
        if (at + kVisitsPerSession <= visits.size()) {
          sessions_.emplace_back(visits.begin() + at,
                                 visits.begin() + at + kVisitsPerSession);
        }
      }
      if (sessions_.size() == before) break;
    }
    if (sessions_.size() < kDigestCalls) {
      throw std::runtime_error("trace too short for the digest window");
    }
  }

  void begin_loop() override {
    seen_.assign(sessions_.size() * 3, 0);
    rlf_ = 0;
  }

  std::uint64_t session_seed(std::size_t s) const { return derive_seed(seed_, s); }

  core::SessionConfig session_config(std::size_t p) const {
    core::SessionConfig config;
    config.policy = kPolicies[p];
    config.threshold = kThreshold;
    config.predictor.model = &model_;
    return config;
  }

  /// Call i runs session i mod S under policy (s + i / S) mod 3, so every
  /// call is a distinct session until the list wraps, and each pass over
  /// the list shifts every session to the next policy.
  CallResult call(std::size_t i) override {
    const std::size_t s = i % sessions_.size();
    const std::size_t p = (s + i / sessions_.size()) % 3;
    const core::SessionResult r =
        core::run_session(sessions_[s], session_config(p), session_seed(s));
    if (r.pages != static_cast<int>(sessions_[s].size()) ||
        r.page_load_times.size() != sessions_[s].size() ||
        !(r.energy.with_reading_j > 0) || !std::isfinite(r.energy.with_reading_j)) {
      throw std::runtime_error("session " + std::to_string(s) +
                               " did not load every page");
    }
    // A session under a policy is a pure function of its inputs: a
    // repeat must reproduce the first run.
    const std::uint64_t hash = hash_session(r);
    std::uint64_t& seen = seen_[3 * s + p];
    if (seen == 0) {
      seen = hash;
    } else if (seen != hash) {
      throw std::runtime_error("session " + std::to_string(s) +
                               " is not deterministic across passes");
    }
    rlf_ += r.rlf_count;
    return CallResult{static_cast<double>(r.pages), r.energy.window_s, hash, {}};
  }

  std::size_t digest_calls() const override { return kDigestCalls; }
  std::uint64_t seed1_digest() const override { return 0x612d332a3d9d4744ULL; }

  void verify(const LoopStats& loop, Outcome& outcome) override {
    // The first sessions under all three policies with a trace recorder
    // attached: where the loop ran the same (session, policy), the results
    // must match (recording never schedules events).  These runs also give
    // the Fig 16 headline, which needs every policy on the same sessions.
    headline_energy_.assign(3 * kHeadlineSessions, 0);
    headline_end_.assign(3 * kHeadlineSessions, 0);
    for (std::size_t s = 0; s < kHeadlineSessions; ++s) {
      for (std::size_t p = 0; p < 3; ++p) {
        core::SessionConfig config = session_config(p);
        obs::TraceRecorder recorder;
        config.trace = &recorder;
        const auto r = core::run_session(sessions_[s], config, session_seed(s));
        headline_energy_[3 * s + p] = r.energy.with_reading_j;
        headline_end_[3 * s + p] = r.energy.window_s;
        idle_power_ = config.stack.power.idle;
        if (p == s % 3 && s < loop.hashes.size()) {
          outcome.attempt(hash_session(r) == loop.hashes[s],
                          "traced run_session differs on session " +
                              std::to_string(s));
        }
      }
    }
  }

  void replay(const LoopStats&, SpanRecorder& spans,
              std::vector<Metric>& layer) override {
    // Each window session runs again and is then replayed right after, so
    // the JS share compares two times taken under the same host load.
    std::uint64_t js_ops = 0;
    double call_ms = 0;
    std::vector<std::vector<double>> rows;
    for (std::size_t s = 0; s < kDigestCalls; ++s) {
      const auto& visits = sessions_[s];
      const std::uint64_t seed = session_seed(s);
      const std::size_t p = s % 3;  // the window's policy for session s
      const Clock::time_point t0 = Clock::now();
      {
        auto scope = spans.span("replay.call");
        core::run_session(visits, session_config(p), seed);
      }
      call_ms += seconds_between(t0, Clock::now()) * 1e3;
      net::WebServer server;
      std::set<std::string> hosted;
      for (const auto& visit : visits) {
        if (hosted.insert(visit.spec->site).second) {
          host_page(*visit.spec, seed, server, spans);
        }
      }
      const bool energy_aware = kPolicies[p] != core::SessionPolicy::kBaseline;
      for (std::size_t v = 0; v < visits.size(); ++v) {
        js_ops += replay_load(server, visits[v].spec->main_url(),
                              seed ^ (v * 0x9E3779B97F4AULL), energy_aware, spans);
        for (const auto& record : generator_->records()) {
          if (&record.spec == visits[v].spec) rows.push_back(record.features.to_row());
        }
      }
    }
    add_page_layer_metrics(spans, js_ops, call_ms, layer);

    // One prediction per page view of the window, as Predict-9 makes them,
    // repeated so the span is long enough to time.
    constexpr int kRepeats = 100;
    double sum = 0;
    const Clock::time_point t0 = Clock::now();
    {
      auto scope = spans.span("gbrt.predict");
      for (int rep = 0; rep < kRepeats; ++rep) {
        for (const auto& row : rows) sum += model_.predict(row);
      }
    }
    const double us = seconds_between(t0, Clock::now()) * 1e6;
    if (!std::isfinite(sum)) throw std::runtime_error("non-finite prediction");
    layer.push_back({"gbrt.predict_us",
                     rows.empty() ? 0 : us / (kRepeats * static_cast<double>(rows.size())),
                     "us"});
  }

  void layer_counts(const LoopStats&, std::vector<Metric>& layer) override {
    const double hits = library_metrics_.value("batch.memo_hits");
    layer.push_back({"batch.memo_hits", hits, "count"});
    layer.push_back({"batch.memo_misses",
                     library_metrics_.value("batch.jobs") - hits, "count"});
    layer.push_back({"radio.rlf", static_cast<double>(rlf_), "count"});
    layer.push_back({"gbrt.train_s", median(gbrt_train_s_), "s"});
    layer.push_back({"trace.generate_ms", median(trace_generate_ms_), "ms"});
  }

  std::vector<std::string> headline() const override {
    // Fig 16 accounting: the three runs of a session are compared over a
    // common horizon (the longest of them), shorter ones padded with IDLE
    // power.
    double energy[3] = {0, 0, 0};
    for (std::size_t s = 0; s < kHeadlineSessions; ++s) {
      Seconds horizon = 0;
      for (std::size_t p = 0; p < 3; ++p) {
        horizon = std::max(horizon, headline_end_[3 * s + p]);
      }
      for (std::size_t p = 0; p < 3; ++p) {
        energy[p] += headline_energy_[3 * s + p] +
                     idle_power_ * (horizon - headline_end_[3 * s + p]);
      }
    }
    const auto saving = [&](int p) {
      return energy[0] > 0 ? 100 * (energy[0] - energy[p]) / energy[0] : 0.0;
    };
    char line[256];
    std::snprintf(line, sizeof line,
                  "power saving over %zu sessions: Predict-9 %.1f %%, "
                  "Accurate-9 %.1f %% (paper: Accurate-9 26.1 %%, Predict-9 "
                  "slightly below)",
                  kHeadlineSessions, saving(2), saving(1));
    return {line};
  }

 private:
  std::uint64_t seed_;
  std::unique_ptr<trace::TraceGenerator> generator_;
  gbrt::GbrtModel model_;
  std::vector<std::vector<core::PageVisit>> sessions_;
  obs::MetricsRegistry library_metrics_;
  std::vector<double> gbrt_train_s_;
  std::vector<double> trace_generate_ms_;
  std::vector<std::uint64_t> seen_;  ///< first hash per (session, policy)
  std::uint64_t rlf_ = 0;
  // Headline sessions per (session, policy): energy and window end.
  std::vector<double> headline_energy_;
  std::vector<Seconds> headline_end_;
  double idle_power_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_reading_sessions(std::uint64_t seed) {
  return std::make_unique<ReadingSessions>(seed);
}

}  // namespace perfbench
