// Measures what observability costs: the 64-load batch sweep from
// bench_throughput run untraced and traced, plus a 16-UE cell run with
// telemetry sampling off and on.  Each overhead is measured over kReps
// back-to-back pairs of reps, one rep per side; a rep repeats its workload
// until kRepFloorSeconds have passed and reports seconds per run.  The
// overhead is the median of the per-pair ratios, so neither a short window
// nor drift of the machine's speed between pairs decides it.
//
// The cost contract (obs/trace.hpp) is that a disabled recorder is one
// predicted-not-taken branch per site and an enabled one only appends to a
// vector — never schedules simulator events — so traced results must be
// bit-identical to untraced ones and the slowdown must stay within a few
// percent.  Telemetry (obs/telemetry.hpp) does schedule tick events but
// never mutates simulation state, so the sampled run's workload results
// must equal the unsampled run's exactly.  This bench asserts both
// identities (exit 1 on any divergence) and reports each overhead against
// a 5 % budget in BENCH_obs_overhead.json.
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>

#include "cell/cell.hpp"
#include "util/rng.hpp"

namespace {

using namespace eab;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<core::BatchJob> make_sweep(bool traced) {
  std::vector<corpus::PageSpec> pool = corpus::mobile_benchmark();
  const auto full = corpus::full_benchmark();
  pool.insert(pool.end(), full.begin(), full.end());

  std::vector<core::BatchJob> jobs;
  for (std::size_t i = 0; i < 64; ++i) {
    core::BatchJob job;
    job.spec = pool[i % pool.size()];
    job.config = core::StackConfig::for_mode(
        (i / pool.size()) % 2 == 0 ? browser::PipelineMode::kOriginal
                                   : browser::PipelineMode::kEnergyAware);
    job.config.trace = traced;
    job.reading_window = 20.0;
    job.seed = derive_seed(1, i);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

constexpr int kReps = 7;
constexpr double kRepFloorSeconds = 0.5;

/// Wall seconds per call of `run`, which is called until kRepFloorSeconds
/// have passed.
template <typename Run>
double seconds_per_run(const Run& run) {
  const auto start = Clock::now();
  int runs = 0;
  double elapsed = 0;
  do {
    run();
    ++runs;
    elapsed = seconds_since(start);
  } while (elapsed < kRepFloorSeconds);
  return elapsed / runs;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

struct Overhead {
  double off_s = 0;     ///< median seconds per run, feature off
  double on_s = 0;      ///< median seconds per run, feature on
  double overhead = 0;  ///< median over pairs of on/off, minus 1
};

/// Times kReps pairs of reps of `off` and `on`; which side goes first
/// alternates from pair to pair.
template <typename Off, typename On>
Overhead measure_overhead(const Off& off, const On& on) {
  std::vector<double> off_s, on_s, ratios;
  for (int rep = 0; rep < kReps; ++rep) {
    double a = 0, b = 0;
    if (rep % 2 == 0) {
      a = seconds_per_run(off);
      b = seconds_per_run(on);
    } else {
      b = seconds_per_run(on);
      a = seconds_per_run(off);
    }
    off_s.push_back(a);
    on_s.push_back(b);
    ratios.push_back(b / a);
  }
  return {median(off_s), median(on_s), median(ratios) - 1.0};
}

/// One run of `jobs` on a fresh runner, so no metrics carry over between
/// runs.
std::vector<core::SingleLoadResult> run_sweep(
    const std::vector<core::BatchJob>& jobs) {
  core::BatchRunner runner(
      static_cast<int>(bench::knobs().u64_or("EAB_JOBS", 0)));
  return runner.run(jobs);
}

/// The telemetry measurement vehicle: one 16-UE cell, 600 s horizon.
cell::CellConfig overhead_cell_config(Seconds telemetry_tick) {
  cell::CellConfig config;
  config.per_ue =
      core::ScenarioBuilder(browser::PipelineMode::kEnergyAware).build();
  config.specs = corpus::mobile_benchmark();
  config.users = 16;
  config.channels = 6;
  config.horizon = 600.0;
  config.cell_seed = 5;
  config.telemetry_tick = telemetry_tick;
  return config;
}

/// The telemetry identity: sampling must not bend the workload trajectory.
/// (sim_events legitimately differs — the tick events themselves.)
bool same_workload(const cell::CellResult& a, const cell::CellResult& b) {
  bool same = a.offered == b.offered && a.dropped == b.dropped &&
              a.completed == b.completed && a.aborted == b.aborted &&
              a.grant_overcommits == b.grant_overcommits &&
              a.end_time == b.end_time &&
              a.mean_busy_grants == b.mean_busy_grants &&
              a.per_ue.size() == b.per_ue.size();
  for (std::size_t i = 0; same && i < a.per_ue.size(); ++i) {
    same = a.per_ue[i].energy.with_reading_j ==
               b.per_ue[i].energy.with_reading_j &&
           a.per_ue[i].completed == b.per_ue[i].completed;
  }
  return same;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eab;
  if (bench::maybe_print_help(
          argc, argv, "bench_obs_overhead",
          "tracing cost on the 64-load batch sweep", {"EAB_JOBS"})) {
    return 0;
  }
  bench::print_header("Obs overhead", "tracing cost on the 64-load batch sweep");

  const auto untraced_jobs = make_sweep(false);
  const auto traced_jobs = make_sweep(true);

  const std::vector<core::SingleLoadResult> untraced = run_sweep(untraced_jobs);
  const std::vector<core::SingleLoadResult> traced = run_sweep(traced_jobs);
  const Overhead tracing =
      measure_overhead([&] { run_sweep(untraced_jobs); },
                       [&] { run_sweep(traced_jobs); });

  // The identity the whole subsystem stands on: tracing changes nothing.
  bool identical = untraced.size() == traced.size();
  for (std::size_t i = 0; identical && i < untraced.size(); ++i) {
    const auto& u = untraced[i];
    const auto& t = traced[i];
    identical = u.sim_events == t.sim_events &&
                u.energy.load_j == t.energy.load_j &&
                u.energy.with_reading_j == t.energy.with_reading_j &&
                u.dom_signature == t.dom_signature &&
                u.metrics.total_time() == t.metrics.total_time() &&
                u.trace == nullptr && t.trace != nullptr;
  }

  // While the traces are here, audit every one of them.
  int audit_failures = 0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const auto report = obs::TraceAuditor().audit(
        *traced[i].trace,
        bench::make_audit_inputs(traced_jobs[i].config, traced[i]));
    if (!report.ok()) {
      ++audit_failures;
      std::printf("AUDIT FAIL [load %zu]:\n%s\n", i, report.summary().c_str());
    }
  }

  double trace_events = 0;
  for (const auto& t : traced) {
    trace_events += static_cast<double>(t.trace->size());
  }

  std::printf("loads: %zu  reps: %d (paired, median)\n",
              untraced_jobs.size(), kReps);
  std::printf("untraced: %.3f s   traced: %.3f s   overhead: %+.2f%% "
              "(budget 5%%)\n",
              tracing.off_s, tracing.on_s, tracing.overhead * 100.0);
  std::printf("trace events recorded: %.0f (%.0f per load)\n", trace_events,
              trace_events / static_cast<double>(traced.size()));
  std::printf("results bit-identical traced vs untraced: %s   audits: %s\n",
              identical ? "yes" : "NO",
              audit_failures == 0 ? "all passed" : "FAILED");

  // Phase 2: telemetry sampling on the cell co-simulation.
  const cell::CellConfig plain_config = overhead_cell_config(0);
  const cell::CellConfig sampled_config = overhead_cell_config(5.0);
  const cell::CellResult plain = cell::run_cell(plain_config);
  const cell::CellResult sampled = cell::run_cell(sampled_config);
  const Overhead sampling =
      measure_overhead([&] { cell::run_cell(plain_config); },
                       [&] { cell::run_cell(sampled_config); });
  const bool cell_identical = same_workload(plain, sampled) &&
                              plain.telemetry == nullptr &&
                              sampled.telemetry != nullptr;
  std::printf("\ncell (16 UEs, 600 s): unsampled %.3f s   sampled %.3f s   "
              "overhead: %+.2f%% (budget 5%%)\n",
              sampling.off_s, sampling.on_s, sampling.overhead * 100.0);
  std::printf("telemetry series recorded: %zu\n",
              sampled.telemetry ? sampled.telemetry->series_count() : 0);
  std::printf("workload identical sampled vs unsampled: %s\n",
              cell_identical ? "yes" : "NO");

  std::string json;
  bench::appendf(json,
                 "{\n"
                 "  \"loads\": %zu,\n"
                 "  \"reps\": %d,\n"
                 "  \"untraced_seconds\": %.6f,\n"
                 "  \"traced_seconds\": %.6f,\n"
                 "  \"overhead\": %.6f,\n"
                 "  \"overhead_budget\": 0.05,\n"
                 "  \"within_budget\": %s,\n"
                 "  \"trace_events\": %.0f,\n"
                 "  \"bit_identical\": %s,\n"
                 "  \"audit_failures\": %d,\n"
                 "  \"sampling_off_seconds\": %.6f,\n"
                 "  \"sampling_on_seconds\": %.6f,\n"
                 "  \"sampling_overhead\": %.6f,\n"
                 "  \"sampling_within_budget\": %s,\n"
                 "  \"telemetry_series\": %zu,\n"
                 "  \"cell_workload_identical\": %s\n"
                 "}\n",
                 untraced_jobs.size(), kReps, tracing.off_s, tracing.on_s,
                 tracing.overhead, tracing.overhead <= 0.05 ? "true" : "false",
                 trace_events, identical ? "true" : "false", audit_failures,
                 sampling.off_s, sampling.on_s, sampling.overhead,
                 sampling.overhead <= 0.05 ? "true" : "false",
                 sampled.telemetry ? sampled.telemetry->series_count() : 0,
                 cell_identical ? "true" : "false");
  bench::write_artifact("BENCH_obs_overhead.json", json);
  return (identical && cell_identical && audit_failures == 0) ? 0 : 1;
}
