// Chaos contract harness (robustness extension; no paper counterpart).
//
// Sweeps EAB_CHAOS_SEEDS (default 256) seed-derived cross-layer chaos
// scenarios — composed network faults, RIL fast-dormancy failures, RRC
// timer drift, mid-load user aborts, cache eviction storms, CPU slowdown —
// through the shared batch engine, checks every run against the invariant
// oracle (trace audit + liveness), and delta-debugs any failure down to a
// minimal reproducer.  Emits BENCH_chaos.json with the survival rate,
// quarantine count and mean shrink cost; exits non-zero on any finding.
// Shrunk reproducers are dumped as replayable JSON under EAB_CHAOS_OUT.

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "chaos/reproducer.hpp"
#include "chaos/runner.hpp"

namespace {

constexpr std::uint64_t kSweepBase = 20260807;

int run() {
  using namespace eab;
  const int count =
      static_cast<int>(bench::knobs().u64_or("EAB_CHAOS_SEEDS", 256));
  bench::print_header("EXT chaos contract",
                      std::to_string(count) +
                          " seeded cross-layer fault scenarios, audited "
                          "and shrunk");

  core::BatchRunner& batch = bench::shared_runner();
  chaos::ChaosRunner runner(batch);
  const chaos::ChaosReport report =
      runner.sweep(chaos::chaos_seeds(kSweepBase, count));

  double mean_shrink = 0;
  for (const chaos::ChaosFinding& finding : report.findings) {
    mean_shrink += finding.shrink_tests;
  }
  if (!report.findings.empty()) {
    mean_shrink /= static_cast<double>(report.findings.size());
  }

  std::printf("scenarios        %d\n", report.scenarios);
  std::printf("survived         %d  (%.4f)\n", report.survived,
              report.survival_rate());
  std::printf("quarantined      %d\n", report.quarantined);
  std::printf("invariant fails  %d\n", report.failures);
  std::printf("mean shrink cost %.1f re-runs per finding\n", mean_shrink);

  const std::string out_dir = bench::knobs().path_or_empty("EAB_CHAOS_OUT");
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const chaos::ChaosFinding& finding = report.findings[i];
    std::printf("FINDING seed=%llu atoms=%zu -> minimal=%zu\n",
                static_cast<unsigned long long>(finding.scenario.seed),
                finding.scenario.faults.size(),
                finding.minimal.faults.size());
    for (const std::string& violation : finding.violations) {
      std::printf("  %s\n", violation.c_str());
    }
    if (!out_dir.empty()) {
      const std::string path = out_dir + "/chaos_repro_" +
                               std::to_string(finding.scenario.seed) + ".json";
      if (eab::write_file_atomic(path, finding.reproducer_json())) {
        std::printf("  wrote %s\n", path.c_str());
      }
    }
  }

  std::string json;
  bench::appendf(json,
                 "{\n"
                 "  \"scenarios\": %d,\n"
                 "  \"survived\": %d,\n"
                 "  \"survival_rate\": %.6f,\n"
                 "  \"quarantined\": %d,\n"
                 "  \"invariant_failures\": %d,\n"
                 "  \"mean_shrink_tests\": %.3f\n"
                 "}\n",
                 report.scenarios, report.survived, report.survival_rate(),
                 report.quarantined, report.failures, mean_shrink);
  bench::write_artifact("BENCH_chaos.json", json);
  bench::write_metrics_snapshot("chaos", batch.metrics());

  if (!report.ok()) {
    std::printf("CHAOS CONTRACT VIOLATED: %d finding(s)\n", report.failures);
    return 1;
  }
  std::printf("chaos contract held: %d/%d scenarios survived\n",
              report.survived, report.scenarios);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (eab::bench::maybe_print_help(
          argc, argv, "bench_ext_chaos",
          "randomized chaos sweep over the full stack's determinism and "
          "liveness contracts",
          {"EAB_CHAOS_SEEDS", "EAB_CHAOS_OUT", "EAB_JOBS"})) {
    return 0;
  }
  return run();
}
