// page_loads: cold single-UE loads submitted one job per call to
// core::BatchRunner, the way the figure harnesses submit them.  Inputs are
// the Table-3 mobile and full corpus, each job in its own spec_variants
// jitter, both pipelines, and a distinct derived seed per job, so no memo
// key repeats.
#include <cstdio>
#include <stdexcept>

#include "core/batch.hpp"
#include "core/experiment.hpp"
#include "corpus/page_spec.hpp"
#include "replay.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace eab;

/// Calls 0..39 load every base page once per pipeline: the digest window
/// and the block of the per-block rates.
constexpr std::size_t kDigestCalls = 40;
/// A runner (and its memo cache) serves this many calls, then a fresh one
/// takes over, so memory stays flat however fast the loads run.
constexpr std::size_t kCallsPerRunner = 64;
constexpr Seconds kReadingWindow = 20.0;

std::uint64_t hash_load(const core::SingleLoadResult& r) {
  Digest d;
  d.f64(r.energy.load_j);
  d.f64(r.energy.with_reading_j);
  d.f64(r.energy.window_s);
  d.f64(r.metrics.total_time());
  d.f64(r.metrics.transmission_time());
  d.f64(r.dch_time);
  d.u64(static_cast<std::uint64_t>(r.bytes_fetched));
  d.u64(r.sim_events);
  d.bytes(r.dom_signature);
  return d.value();
}

class PageLoads : public Workload {
 public:
  explicit PageLoads(std::uint64_t seed) : seed_(seed) {}

  const char* call_name() const override { return "core.run_single"; }

  void setup() override {
    bases_ = corpus::mobile_benchmark();
    const auto full = corpus::full_benchmark();
    bases_.insert(bases_.end(), full.begin(), full.end());
    configs_[0] = core::StackConfig::for_mode(browser::PipelineMode::kOriginal);
    configs_[1] = core::StackConfig::for_mode(browser::PipelineMode::kEnergyAware);
    // Reference outputs for verify(): the digest window through the plain
    // serial entry point, outside any runner.
    reference_.clear();
    for (std::size_t i = 0; i < kDigestCalls; ++i) {
      const core::BatchJob j = job(i);
      reference_.push_back(hash_load(
          core::run_single_load(j.spec, j.config, j.reading_window, j.seed)));
    }
  }

  void begin_loop() override {
    totals_ = {};
    runner_ = std::make_unique<core::BatchRunner>(1);
    runner_calls_ = 0;
    for (auto& e : energy_) e = 0;
  }

  /// Job i: base page (i/2) mod 20 in its own jittered variant (drawn
  /// from the seed and i/2), pipeline i mod 2, per-job derived seed.  Every
  /// 40 consecutive jobs load all 20 base pages under both pipelines.
  core::BatchJob job(std::size_t i) const {
    const std::size_t pair = i / 2;
    core::BatchJob j;
    j.spec = corpus::spec_variants(bases_[pair % bases_.size()], 2,
                                   derive_seed(seed_, pair))[1];
    j.config = configs_[i % 2];
    j.reading_window = kReadingWindow;
    j.seed = derive_seed(seed_, i);
    return j;
  }

  CallResult call(std::size_t i) override {
    if (runner_calls_ == kCallsPerRunner) {
      totals_.merge(runner_->metrics());
      runner_ = std::make_unique<core::BatchRunner>(1);
      runner_calls_ = 0;
    }
    const core::BatchJob j = job(i);
    const auto results = runner_->run({j});
    ++runner_calls_;
    if (!runner_->last_errors().empty()) {
      throw std::runtime_error("quarantined: " + runner_->last_errors()[0].what);
    }
    const core::SingleLoadResult& r = results.at(0);
    check_load(r);
    if (i < kDigestCalls) {
      energy_[(j.spec.mobile ? 0 : 2) + (energy_aware(j) ? 1 : 0)] +=
          r.energy.with_reading_j;
    }
    return CallResult{1.0, r.energy.window_s, hash_load(r), {}};
  }

  std::size_t digest_calls() const override { return kDigestCalls; }
  std::uint64_t seed1_digest() const override { return 0x04020c84780ea130ULL; }

  void verify(const LoopStats& loop, Outcome& outcome) override {
    // The pooled results must equal the serial entry point's bit for bit.
    for (std::size_t i = 0; i < reference_.size(); ++i) {
      outcome.attempt(i < loop.hashes.size() && loop.hashes[i] == reference_[i],
                      "BatchRunner differs from run_single_load on call " +
                          std::to_string(i));
    }
  }

  void replay(const LoopStats&, SpanRecorder& spans,
              std::vector<Metric>& layer) override {
    // Each window job is loaded again and then replayed right after, so
    // the JS share compares two times taken under the same host load.
    std::uint64_t js_ops = 0;
    double call_ms = 0;
    for (std::size_t i = 0; i < kDigestCalls; ++i) {
      const core::BatchJob j = job(i);
      const Clock::time_point t0 = Clock::now();
      {
        auto scope = spans.span("replay.call");
        core::run_single_load(j.spec, j.config, j.reading_window, j.seed);
      }
      call_ms += seconds_between(t0, Clock::now()) * 1e3;
      net::WebServer server;
      const std::string url = host_page(j.spec, j.seed, server, spans);
      js_ops += replay_load(server, url, j.seed ^ 0x9E3779B9, energy_aware(j),
                            spans);
    }
    add_page_layer_metrics(spans, js_ops, call_ms, layer);
  }

  void layer_counts(const LoopStats& loop, std::vector<Metric>& layer) override {
    obs::MetricsRegistry m = totals_;
    m.merge(runner_->metrics());
    const double hits = m.value("batch.memo_hits");
    const double events = m.value("sim.events_fired");
    layer.push_back({"batch.memo_hits", hits, "count"});
    layer.push_back({"batch.memo_misses", m.value("batch.jobs") - hits, "count"});
    layer.push_back({"sim.events_fired", events, "count"});
    layer.push_back({"sim.events_cancelled", m.value("sim.events_cancelled"), "count"});
    layer.push_back({"sim.peak_heap", m.value("sim.peak_heap"), "count"});
    layer.push_back({"sim.wall_ns_per_event",
                     events > 0 ? loop.wall_s * 1e9 / events : 0, "ns"});
    layer.push_back({"net.fetch_attempts",
                     m.value("http.fetches") + m.value("http.retries"), "count"});
    layer.push_back({"net.retries", m.value("http.retries"), "count"});
    layer.push_back({"radio.promotions",
                     m.value("rrc.idle_promotions") + m.value("rrc.fach_promotions"),
                     "count"});
    layer.push_back({"radio.rlf", m.value("radio.rlf"), "count"});
  }

  std::vector<std::string> headline() const override {
    // Energy for page + 20 s reading, EA against the stock pipeline, over
    // the digest window (every base page once per pipeline).
    char line[256];
    std::snprintf(line, sizeof line,
                  "EA energy saving (load + 20 s reading): mobile %.1f %% "
                  "(paper 35.7 %%), full %.1f %% (paper 30.8 %%)",
                  100.0 * saving(energy_[0], energy_[1]),
                  100.0 * saving(energy_[2], energy_[3]));
    return {line};
  }

 private:
  static bool energy_aware(const core::BatchJob& j) {
    return j.config.pipeline.mode == browser::PipelineMode::kEnergyAware;
  }
  static double saving(double base, double ours) {
    return base > 0 ? (base - ours) / base : 0;
  }
  static void check_load(const core::SingleLoadResult& r) {
    // A fault-free cold load settles every fetch it issued with a body.
    const double issued = r.job_metrics.value("http.fetches");
    const double settled = r.job_metrics.value("load.objects") +
                           r.job_metrics.value("load.failed_resources");
    if (r.metrics.aborted || r.failed_resources != 0 || issued != settled ||
        r.metrics.objects_fetched == 0) {
      throw std::runtime_error("load left fetches unsettled or failed: " +
                               std::to_string(issued) + " issued, " +
                               std::to_string(settled) + " settled");
    }
  }

  std::uint64_t seed_;
  std::vector<corpus::PageSpec> bases_;  ///< Table 3, mobile then full
  core::StackConfig configs_[2];          ///< original, energy-aware
  std::vector<std::uint64_t> reference_;  ///< serial-path digest window
  std::unique_ptr<core::BatchRunner> runner_;
  std::size_t runner_calls_ = 0;
  obs::MetricsRegistry totals_;  ///< registries of retired runners
  double energy_[4] = {0, 0, 0, 0};  ///< mobile orig/ea, full orig/ea
};

}  // namespace

std::unique_ptr<Workload> make_page_loads(std::uint64_t seed) {
  return std::make_unique<PageLoads>(seed);
}

}  // namespace perfbench
