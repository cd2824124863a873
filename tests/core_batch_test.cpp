#include "core/batch.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "corpus/page_spec.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace eab::core {
namespace {

/// A deliberately small page so each test load stays cheap.
corpus::PageSpec tiny_spec(int variant) {
  corpus::PageSpec spec;
  spec.site = "test.example/" + std::to_string(variant);
  spec.mobile = true;
  spec.html_bytes = kilobytes(6);
  spec.css_files = 1;
  spec.css_bytes = kilobytes(2);
  spec.css_images = 1;
  spec.js_files = 1;
  spec.js_bytes = kilobytes(2);
  spec.js_busy_iterations = 200;
  spec.js_images = 1;
  spec.html_images = 2;
  spec.image_bytes = kilobytes(3);
  spec.anchors = 4;
  spec.paragraphs = 4;
  return spec;
}

std::vector<BatchJob> sweep_jobs(int count) {
  std::vector<BatchJob> jobs;
  for (int i = 0; i < count; ++i) {
    BatchJob job;
    job.spec = tiny_spec(i % 4);
    job.config = StackConfig::for_mode(i % 2 == 0
                                           ? browser::PipelineMode::kOriginal
                                           : browser::PipelineMode::kEnergyAware);
    job.reading_window = 5.0;
    job.seed = derive_seed(99, static_cast<std::uint64_t>(i));
    jobs.push_back(std::move(job));
  }
  return jobs;
}

void expect_identical(const SingleLoadResult& a, const SingleLoadResult& b) {
  EXPECT_EQ(a.energy.load_j, b.energy.load_j);
  EXPECT_EQ(a.energy.with_reading_j, b.energy.with_reading_j);
  EXPECT_EQ(a.metrics.total_time(), b.metrics.total_time());
  EXPECT_EQ(a.metrics.transmission_time(), b.metrics.transmission_time());
  EXPECT_EQ(a.dch_time, b.dch_time);
  EXPECT_EQ(a.fach_time, b.fach_time);
  EXPECT_EQ(a.bytes_fetched, b.bytes_fetched);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.dom_signature, b.dom_signature);
  EXPECT_EQ(a.features.to_row(), b.features.to_row());
}

TEST(BatchRunner, ParallelMatchesSerialElementwise) {
  const auto jobs = sweep_jobs(8);
  std::vector<SingleLoadResult> serial;
  for (const auto& job : jobs) {
    serial.push_back(
        run_single_load(job.spec, job.config, job.reading_window, job.seed));
  }

  BatchRunner runner(4);
  EXPECT_EQ(runner.threads(), 4);
  const auto parallel = runner.run(jobs);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(serial[i], parallel[i]);
  }
}

TEST(BatchRunner, EabJobsOneDegradesToSerial) {
  // The benches size their runners from EAB_JOBS exactly like this.
  ASSERT_EQ(setenv("EAB_JOBS", "1", 1), 0);
  BatchRunner runner(static_cast<int>(bench::knobs().u64_or("EAB_JOBS", 0)));
  unsetenv("EAB_JOBS");
  EXPECT_EQ(runner.threads(), 1);

  const auto jobs = sweep_jobs(4);
  const auto results = runner.run(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(i);
    const auto expected = run_single_load(jobs[i].spec, jobs[i].config,
                                          jobs[i].reading_window, jobs[i].seed);
    expect_identical(expected, results[i]);
  }
}

TEST(BatchRunner, ResolveJobsPrecedence) {
  EXPECT_EQ(BatchRunner::resolve_jobs(7), 7);  // explicit request wins
  const int hardware = BatchRunner::resolve_jobs(0);
  EXPECT_GE(hardware, 1);
  // The library never reads EAB_JOBS; only the benches do, strictly.
  ASSERT_EQ(setenv("EAB_JOBS", "3", 1), 0);
  EXPECT_EQ(BatchRunner::resolve_jobs(0), hardware);
  unsetenv("EAB_JOBS");
}

TEST(BatchRunner, EmptyBatchReturnsEmpty) {
  BatchRunner runner(2);
  EXPECT_TRUE(runner.run({}).empty());
  EXPECT_TRUE(runner.last_errors().empty());
}

/// A configuration run_single_load rejects up front (stalls with no
/// watchdog), used as the deliberately-throwing job in quarantine tests.
BatchJob poisoned_job() {
  BatchJob job;
  job.spec = tiny_spec(0);
  job.config = StackConfig::for_mode(browser::PipelineMode::kOriginal);
  job.config.fault_plan.stall_rate = 0.5;
  job.config.retry.request_timeout = 0;  // validate_fault_wiring throws
  job.seed = 424242;
  return job;
}

TEST(BatchQuarantine, ThrowingJobIsIsolatedAndBatchCompletes) {
  auto jobs = sweep_jobs(6);
  jobs.insert(jobs.begin() + 3, poisoned_job());

  BatchRunner runner(4);
  const auto results = runner.run(jobs);
  ASSERT_EQ(results.size(), jobs.size());

  ASSERT_EQ(runner.last_errors().size(), 1u);
  const JobError& error = runner.last_errors()[0];
  EXPECT_EQ(error.index, 3u);
  EXPECT_NE(error.what.find("stall_rate"), std::string::npos) << error.what;
  EXPECT_EQ(error.seed, 424242u);

  // The quarantined slot is value-initialized; every other job completed.
  EXPECT_EQ(results[3].sim_events, 0u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == 3) continue;
    SCOPED_TRACE(i);
    EXPECT_GT(results[i].sim_events, 0u);
    EXPECT_GT(results[i].metrics.final_display, 0.0);
  }
  EXPECT_EQ(runner.metrics().value("batch.quarantined"), 1.0);
}

TEST(BatchQuarantine, SerialAndParallelQuarantinesAreIdentical) {
  auto jobs = sweep_jobs(5);
  jobs.insert(jobs.begin() + 1, poisoned_job());

  BatchRunner serial(1);
  BatchRunner parallel(4);
  const auto a = serial.run(jobs);
  const auto b = parallel.run(jobs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(a[i], b[i]);
  }
  ASSERT_EQ(serial.last_errors().size(), 1u);
  ASSERT_EQ(parallel.last_errors().size(), 1u);
  EXPECT_EQ(serial.last_errors()[0].index, parallel.last_errors()[0].index);
  EXPECT_EQ(serial.last_errors()[0].what, parallel.last_errors()[0].what);
  EXPECT_EQ(serial.last_errors()[0].seed, parallel.last_errors()[0].seed);
  EXPECT_TRUE(serial.metrics().same_as(parallel.metrics()));
}

TEST(BatchQuarantine, RetryAfterQuarantineResetsErrors) {
  const std::vector<BatchJob> jobs = {poisoned_job()};
  BatchRunner runner(1);
  runner.run(jobs);
  EXPECT_EQ(runner.last_errors().size(), 1u);

  // Re-running retries the load and still reports exactly one error, not
  // an accumulated two.
  runner.run(jobs);
  EXPECT_EQ(runner.last_errors().size(), 1u);
  EXPECT_EQ(runner.metrics().value("batch.quarantined"), 2.0);

  // A healthy batch clears the quarantine list.
  runner.run(sweep_jobs(2));
  EXPECT_TRUE(runner.last_errors().empty());
}

TEST(BatchQuarantine, DuplicatePoisonedJobsEachGetAnError) {
  std::vector<BatchJob> jobs = {poisoned_job(), poisoned_job()};
  BatchRunner runner(2);
  const auto results = runner.run(jobs);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_EQ(runner.last_errors().size(), 2u);
  EXPECT_EQ(runner.last_errors()[0].index, 0u);
  EXPECT_EQ(runner.last_errors()[1].index, 1u);
  EXPECT_EQ(runner.metrics().value("batch.quarantined"), 2.0);
}

TEST(EnvParsing, ParseEnvU64IsStrict) {
  std::uint64_t out = 0;
  EXPECT_TRUE(bench::parse_env_u64("0", out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(bench::parse_env_u64("18446744073709551615", out));
  EXPECT_EQ(out, 18446744073709551615ull);
  EXPECT_FALSE(bench::parse_env_u64(nullptr, out));
  EXPECT_FALSE(bench::parse_env_u64("", out));
  EXPECT_FALSE(bench::parse_env_u64("12x", out));
  EXPECT_FALSE(bench::parse_env_u64("x12", out));
  EXPECT_FALSE(bench::parse_env_u64("-1", out));
  EXPECT_FALSE(bench::parse_env_u64("+1", out));
  EXPECT_FALSE(bench::parse_env_u64(" 1", out));
  EXPECT_FALSE(bench::parse_env_u64("1 ", out));
  EXPECT_FALSE(bench::parse_env_u64("0x10", out));
  EXPECT_FALSE(bench::parse_env_u64("18446744073709551616", out));  // 2^64
}

TEST(EnvParsing, ParseEnvF64IsStrict) {
  double out = 0;
  EXPECT_TRUE(bench::parse_env_f64("2", out));
  EXPECT_EQ(out, 2.0);
  EXPECT_TRUE(bench::parse_env_f64("0.75", out));
  EXPECT_EQ(out, 0.75);
  EXPECT_TRUE(bench::parse_env_f64("1.5e1", out));
  EXPECT_EQ(out, 15.0);
  EXPECT_FALSE(bench::parse_env_f64(nullptr, out));
  EXPECT_FALSE(bench::parse_env_f64("", out));
  EXPECT_FALSE(bench::parse_env_f64("-1", out));
  EXPECT_FALSE(bench::parse_env_f64("+1", out));
  EXPECT_FALSE(bench::parse_env_f64(".5", out));
  EXPECT_FALSE(bench::parse_env_f64(" 1", out));
  EXPECT_FALSE(bench::parse_env_f64("1 ", out));
  EXPECT_FALSE(bench::parse_env_f64("1.5s", out));
  EXPECT_FALSE(bench::parse_env_f64("0x1p4", out));
  EXPECT_FALSE(bench::parse_env_f64("inf", out));
  EXPECT_FALSE(bench::parse_env_f64("nan", out));
  EXPECT_FALSE(bench::parse_env_f64("1e999", out));
}

std::string f64_text(double value) {
  char text[32];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

/// Reads `spec`'s knob through its typed getter (unset: the type's zero),
/// rendered as text so one comparison serves every type.
std::string read_knob(const bench::KnobSpec& spec) {
  const bench::KnobRegistry& knobs = bench::knobs();
  switch (spec.type) {
    case bench::KnobType::kFlag: return knobs.flag(spec.name) ? "1" : "0";
    case bench::KnobType::kU64:
      return std::to_string(knobs.u64_or(spec.name, 0));
    case bench::KnobType::kF64: return f64_text(knobs.f64_or(spec.name, 0));
    case bench::KnobType::kPath: return knobs.path_or_empty(spec.name);
  }
  return "";
}

/// Sets knob `name` to each of `values` in turn; each must read back as
/// itself.
void expect_accepted(const char* name, const std::vector<std::string>& values) {
  for (const std::string& raw : values) {
    setenv(name, raw.c_str(), 1);
    EXPECT_EQ(read_knob(bench::knobs().require(name)), raw) << name;
  }
  unsetenv(name);
}

/// Sets knob `name` to each of `values` in turn; reading each must exit 2
/// with the diagnostic naming the knob, the value and the spec's expected
/// text.
void expect_rejected(const char* name, const std::vector<std::string>& values) {
  const bench::KnobSpec& spec = bench::knobs().require(name);
  for (const std::string& raw : values) {
    setenv(name, raw.c_str(), 1);
    std::string regex;  // the diagnostic, matched literally
    for (const char c : "error: " + std::string(name) + "=\"" + raw +
                            "\" is invalid; expected " + spec.expected) {
      if (std::strchr(".[](){}*+?|^$\\", c) != nullptr) regex += '\\';
      regex += c;
    }
    EXPECT_EXIT(read_knob(spec), ::testing::ExitedWithCode(2), regex)
        << name << "=" << raw;
  }
  unsetenv(name);
}

TEST(EnvParsingDeathTest, EveryRegisteredKnobIsStrict) {
  constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
  // Values each knob's users have typed by mistake, rejected on top of the
  // per-type rows below.
  const std::map<std::string, std::vector<std::string>> typos = {
      {"EAB_FAULT_SEED", {"12bananas"}},
      {"EAB_TRACE", {"yes"}},
      {"EAB_CHAOS_SEEDS", {"0"}},
      {"EAB_SUPERVISE", {"yes"}},
      {"EAB_WORKERS", {"0", "2000", "two"}},
      {"EAB_SELF_CHAOS", {"-1"}},
      {"EAB_SELF_CHAOS_KILLS", {"65"}},
      {"EAB_SELF_CHAOS_ORC", {"maybe"}},
      {"EAB_TELEMETRY", {"yes"}},
      {"EAB_TELEMETRY_TICK", {"0", "86401", "5s"}},
      {"EAB_TELEMETRY_BUDGET", {"1", "1048577"}},
      {"EAB_PROGRESS", {"on"}},
  };
  std::size_t typo_rows = 0;
  for (const bench::KnobSpec& spec : bench::KnobRegistry::instance().specs()) {
    // The bound edges in and out, plus one malformed value per type.
    std::vector<std::string> accepted;
    std::vector<std::string> rejected;
    if (const auto row = typos.find(spec.name); row != typos.end()) {
      rejected = row->second;
      ++typo_rows;
    }
    switch (spec.type) {
      case bench::KnobType::kFlag:
        accepted = {"0", "1"};
        rejected.insert(rejected.end(), {"yes", "2"});
        break;
      case bench::KnobType::kU64:
        accepted = {std::to_string(spec.u64_min),
                    std::to_string(spec.u64_max)};
        rejected.push_back("12x");
        if (spec.u64_min > 0) {
          rejected.push_back(std::to_string(spec.u64_min - 1));
        }
        if (spec.u64_max < kU64Max) {
          rejected.push_back(std::to_string(spec.u64_max + 1));
        }
        break;
      case bench::KnobType::kF64:
        accepted = {spec.f64_positive ? f64_text(1e-9) : "0"};
        rejected.push_back("1.5s");
        if (spec.f64_positive) rejected.push_back("0");
        if (std::isfinite(spec.f64_max)) {
          accepted.push_back(f64_text(spec.f64_max));
          rejected.push_back(f64_text(
              std::nextafter(spec.f64_max, std::numeric_limits<double>::max())));
        }
        break;
      case bench::KnobType::kPath:
        accepted = {"/tmp/knob dir"};  // free-form: nothing is malformed
        break;
    }
    expect_accepted(spec.name, accepted);
    expect_rejected(spec.name, rejected);
    // Unset reads as the caller's fallback.
    EXPECT_EQ(read_knob(spec), spec.type == bench::KnobType::kPath ? "" : "0")
        << spec.name;
  }
  EXPECT_EQ(typo_rows, typos.size()) << "a typo row names no registered knob";
}

TEST(EnvParsing, WellFormedOverridesAreHonored) {
  expect_accepted("EAB_FAULT_SEED", {"12345"});
  expect_accepted("EAB_TRACE", {"1", "0"});
  expect_accepted("EAB_CHAOS_SEEDS", {"32"});
  EXPECT_EQ(bench::knobs().u64_or("EAB_FAULT_SEED", 7), 7u);
  EXPECT_EQ(bench::knobs().u64_or("EAB_CHAOS_SEEDS", 256), 256u);
  EXPECT_FALSE(bench::knobs().flag("EAB_TRACE"));
}

TEST(EnvParsing, TelemetryKnobsHonorWellFormedValues) {
  expect_accepted("EAB_TELEMETRY", {"1", "0"});
  expect_accepted("EAB_TELEMETRY_TICK", {"10"});
  expect_accepted("EAB_TELEMETRY_BUDGET", {"1024"});
  expect_accepted("EAB_PROGRESS", {"1", "0"});
  EXPECT_EQ(bench::knobs().u64_or("EAB_TELEMETRY_TICK", 5), 5u);
  EXPECT_EQ(bench::knobs().u64_or("EAB_TELEMETRY_BUDGET", 256), 256u);
}

TEST(EnvParsingDeathTest, MalformedJobCountDiesLoudly) {
  expect_rejected("EAB_JOBS", {"abc", "0", "1025"});
}

TEST(EnvParsing, SupervisionKnobsHonorWellFormedValues) {
  // Unset: supervise without durability, chaos or progress, with
  // Supervisor::resolve_workers' default pool.
  const auto defaults =
      bench::supervisor_config_from_env("sweep.journal", "fp-v1");
  EXPECT_EQ(defaults.workers, 0);
  EXPECT_TRUE(defaults.checkpoint_path.empty());
  EXPECT_EQ(defaults.fingerprint, "fp-v1");
  EXPECT_EQ(defaults.self_chaos_seed, 0u);
  EXPECT_EQ(defaults.self_chaos_worker_kills, 0);
  EXPECT_FALSE(defaults.self_chaos_kill_orchestrator);
  EXPECT_FALSE(defaults.progress);

  const std::vector<std::pair<const char*, const char*>> env = {
      {"EAB_WORKERS", "3"},         {"EAB_CHECKPOINT_DIR", "/tmp/ckpt"},
      {"EAB_SELF_CHAOS", "12345"},  {"EAB_SELF_CHAOS_KILLS", "4"},
      {"EAB_SELF_CHAOS_ORC", "1"},  {"EAB_PROGRESS", "1"}};
  for (const auto& [name, value] : env) setenv(name, value, 1);
  const auto config =
      bench::supervisor_config_from_env("sweep.journal", "fp-v1");
  for (const auto& [name, value] : env) unsetenv(name);
  EXPECT_EQ(config.workers, 3);
  EXPECT_EQ(config.checkpoint_path, "/tmp/ckpt/sweep.journal");
  EXPECT_EQ(config.fingerprint, "fp-v1");
  EXPECT_EQ(config.self_chaos_seed, 12345u);
  EXPECT_EQ(config.self_chaos_worker_kills, 4);
  EXPECT_TRUE(config.self_chaos_kill_orchestrator);
  EXPECT_TRUE(config.progress);
}

TEST(EnvParsing, OutageKnobsHonorWellFormedValues) {
  // All defaults: the plan is disabled and matches a default-constructed
  // one field for field.
  const radio::OutagePlan defaults = bench::outage_plan_from_env();
  EXPECT_FALSE(defaults.enabled());
  EXPECT_EQ(defaults.count, radio::OutagePlan{}.count);
  EXPECT_EQ(defaults.seed, radio::OutagePlan{}.seed);

  setenv("EAB_OUTAGE_COUNT", "3", 1);
  setenv("EAB_OUTAGE_START", "1.5", 1);
  setenv("EAB_OUTAGE_PERIOD", "8", 1);
  setenv("EAB_OUTAGE_DURATION", "2.5", 1);
  setenv("EAB_OUTAGE_FAIL_RATE", "0.25", 1);
  setenv("EAB_OUTAGE_SEED", "42", 1);
  const radio::OutagePlan plan = bench::outage_plan_from_env();
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(plan.count, 3);
  EXPECT_EQ(plan.start, 1.5);
  EXPECT_EQ(plan.period, 8.0);
  EXPECT_EQ(plan.duration, 2.5);
  EXPECT_EQ(plan.reestablish_fail_rate, 0.25);
  EXPECT_EQ(plan.seed, 42u);
  unsetenv("EAB_OUTAGE_COUNT");
  unsetenv("EAB_OUTAGE_START");
  unsetenv("EAB_OUTAGE_PERIOD");
  unsetenv("EAB_OUTAGE_DURATION");
  unsetenv("EAB_OUTAGE_FAIL_RATE");
  unsetenv("EAB_OUTAGE_SEED");
}

TEST(EnvParsingDeathTest, MalformedOutageCountDiesLoudly) {
  setenv("EAB_OUTAGE_COUNT", "two", 1);
  EXPECT_EXIT(bench::outage_plan_from_env(), ::testing::ExitedWithCode(2),
              "EAB_OUTAGE_COUNT");
  setenv("EAB_OUTAGE_COUNT", "1001", 1);
  EXPECT_EXIT(bench::outage_plan_from_env(), ::testing::ExitedWithCode(2),
              "EAB_OUTAGE_COUNT");
  unsetenv("EAB_OUTAGE_COUNT");
}

TEST(EnvParsingDeathTest, MalformedOutageTimingDiesLoudly) {
  setenv("EAB_OUTAGE_PERIOD", "0", 1);
  EXPECT_EXIT(bench::outage_plan_from_env(), ::testing::ExitedWithCode(2),
              "EAB_OUTAGE_PERIOD");
  setenv("EAB_OUTAGE_PERIOD", "8s", 1);
  EXPECT_EXIT(bench::outage_plan_from_env(), ::testing::ExitedWithCode(2),
              "EAB_OUTAGE_PERIOD");
  unsetenv("EAB_OUTAGE_PERIOD");
  setenv("EAB_OUTAGE_DURATION", "-2", 1);
  EXPECT_EXIT(bench::outage_plan_from_env(), ::testing::ExitedWithCode(2),
              "EAB_OUTAGE_DURATION");
  unsetenv("EAB_OUTAGE_DURATION");
  setenv("EAB_OUTAGE_FAIL_RATE", "1.5", 1);
  EXPECT_EXIT(bench::outage_plan_from_env(), ::testing::ExitedWithCode(2),
              "EAB_OUTAGE_FAIL_RATE");
  unsetenv("EAB_OUTAGE_FAIL_RATE");
}

TEST(EnvParsingDeathTest, OverlappingOutageWindowsDieLoudly) {
  // period <= duration on an enabled plan: windows would overlap.
  setenv("EAB_OUTAGE_COUNT", "2", 1);
  setenv("EAB_OUTAGE_PERIOD", "2", 1);
  setenv("EAB_OUTAGE_DURATION", "3", 1);
  EXPECT_EXIT(bench::outage_plan_from_env(), ::testing::ExitedWithCode(2),
              "EAB_OUTAGE_PERIOD");
  unsetenv("EAB_OUTAGE_COUNT");
  unsetenv("EAB_OUTAGE_PERIOD");
  unsetenv("EAB_OUTAGE_DURATION");
}

TEST(Fnv1a, MatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a_64(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(fnv1a_64("a"), 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(fnv1a_64("foobar"), 0x85944171F73967E8ULL);
}

/// A nine-shard sweep whose shard i yields "i:i*i" (`poisoned` throws),
/// recording what it consumes.
core::SupervisorReport sweep_squares(const SweepExecution& exec,
                                     std::vector<std::string>& seen,
                                     std::size_t poisoned) {
  const auto identity = [](std::string_view bytes) { return std::string(bytes); };
  SweepDriver<std::string> driver;
  driver
      .shard([poisoned](std::size_t i) {
        if (i == poisoned) throw std::runtime_error("poisoned shard");
        return std::to_string(i) + ":" + std::to_string(i * i);
      })
      .consume([&seen](std::size_t, std::string&& s) { seen.push_back(s); })
      .codec(identity, identity);
  return driver.run(9, exec);
}

bool run_sweep_squares(std::vector<std::string>& seen, std::size_t poisoned) {
  return bench::run_sweep("squares.journal", "squares v1",
                          [&](const SweepExecution& exec) {
                            return sweep_squares(exec, seen, poisoned);
                          });
}

// The supervised tier forks workers, so these run before anything in this
// binary starts the shared runner's threads (TSan rejects a worker that
// starts its heartbeat thread after a multi-threaded fork).
TEST(RunSweep, ThrowingShardUnderSupervisionReturnsFalse) {
  setenv("EAB_SUPERVISE", "1", 1);
  setenv("EAB_WORKERS", "1", 1);
  std::vector<std::string> seen;
  EXPECT_FALSE(run_sweep_squares(seen, 3));
  unsetenv("EAB_SUPERVISE");
  unsetenv("EAB_WORKERS");
  // The failed shard is skipped; every other one still arrives in order.
  const std::vector<std::string> expected = {"0:0",  "1:1",  "2:4",
                                             "4:16", "5:25", "6:36",
                                             "7:49", "8:64"};
  EXPECT_EQ(seen, expected);
}

TEST(RunSweep, SupervisedAndPooledTiersConsumeTheSameSequence) {
  std::vector<std::string> supervised;
  std::vector<std::string> pooled;
  setenv("EAB_SUPERVISE", "1", 1);
  setenv("EAB_WORKERS", "1", 1);
  EXPECT_TRUE(run_sweep_squares(supervised, 99));
  unsetenv("EAB_SUPERVISE");
  unsetenv("EAB_WORKERS");
  EXPECT_TRUE(run_sweep_squares(pooled, 99));
  ASSERT_EQ(pooled.size(), 9u);
  EXPECT_EQ(pooled[8], "8:64");
  EXPECT_EQ(supervised, pooled);
}

TEST(RunBenchmark, EmptySpecListYieldsZeroedAverages) {
  const auto avg = bench::run_benchmark(
      {}, StackConfig::for_mode(browser::PipelineMode::kOriginal));
  EXPECT_EQ(avg.tx_time, 0.0);
  EXPECT_EQ(avg.total_time, 0.0);
  EXPECT_EQ(avg.first_display, 0.0);
  EXPECT_EQ(avg.final_display, 0.0);
  EXPECT_EQ(avg.load_energy, 0.0);
  EXPECT_EQ(avg.energy_20s, 0.0);
  EXPECT_EQ(avg.dch_time, 0.0);
}

}  // namespace
}  // namespace eab::core
