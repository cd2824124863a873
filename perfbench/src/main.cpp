// perfbench: the repository benchmark.
//
//   perfbench --workload <page_loads|reading_sessions|metro_mobility>
//             --seed <n> --seconds <s> --trace <0|1>
//   perfbench --list
//
// --trace 0 measures the end-to-end metrics: set-up time (median of three
// set-ups), then one closed loop of --seconds.  --trace 1 measures the
// per-layer metrics: half the time untraced, half with a host-time span
// around every call (the throughput ratio is the tracing overhead), then a
// replay of the digest window's inputs through each layer's public entry
// point.  Either way the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Run from the checkout root: artifacts (result JSON, Chrome trace of the
// spans, checkpoint journals) go under .bench_build/out/<workload>/ and
// nowhere else.
#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness.hpp"
#include "util/fileio.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Which metrics exist, what they measure and which end-to-end metric each
/// per-layer one should move.  `where` lists the workloads whose runs
/// exercise the layer: p = page_loads, s = reading_sessions,
/// m = metro_mobility.
struct CatalogueEntry {
  const char* name;
  const char* unit;
  const char* kind;   ///< end_to_end | per_layer | layer_detail
  const char* layer;
  const char* where;
  const char* moves;
};

constexpr CatalogueEntry kCatalogue[] = {
    {"setup_s", "s", "end_to_end", "bench", "psm",
     "inputs, page library, GBRT training, config validation (median of 3)"},
    {"loads_per_s", "1/s", "end_to_end", "bench", "psm",
     "page loads per host second (completed sessions on metro_mobility)"},
    {"sim_s_per_wall_s", "s/s", "end_to_end", "bench", "psm",
     "simulated UE-seconds per host second"},
    {"call_ms_p50", "ms", "end_to_end", "bench", "psm",
     "host time per top-level call, median"},
    {"call_ms_tail", "ms", "end_to_end", "bench", "psm",
     "host time per top-level call, highest percentile with 10 samples beyond"},
    {"peak_rss_mb", "MiB", "end_to_end", "bench", "psm",
     "high-water RSS of the benchmark process"},

    {"web.js_ms", "ms", "per_layer", "web", "psm",
     "loads_per_s, call_ms_* on all three, most on page_loads"},
    {"web.js_ops", "count", "per_layer", "web", "psm",
     "loads_per_s, call_ms_* on all three, most on page_loads"},
    {"web.js_ops_per_s", "1/s", "per_layer", "web", "psm",
     "loads_per_s, call_ms_* on all three, most on page_loads"},
    {"web.js_share", "ratio", "per_layer", "web", "psm",
     "loads_per_s, call_ms_* on all three, most on page_loads"},
    {"web.html_parse_ms", "ms", "per_layer", "web", "psm",
     "loads_per_s on page_loads"},
    {"web.css_ms", "ms", "per_layer", "web", "psm", "loads_per_s on page_loads"},
    {"browser.layout_ms", "ms", "per_layer", "browser", "psm",
     "loads_per_s on page_loads"},
    {"corpus.host_page_ms", "ms", "per_layer", "corpus", "psm",
     "loads_per_s on page_loads"},
    {"batch.memo_hits", "count", "per_layer", "core.batch", "ps",
     "loads_per_s on page_loads"},
    {"batch.memo_misses", "count", "per_layer", "core.batch", "ps",
     "loads_per_s on page_loads"},
    {"radio.rlf", "count", "per_layer", "radio", "psm",
     "sim_s_per_wall_s on metro_mobility"},
    {"cell.grant_overcommits", "count", "per_layer", "cell", "m",
     "sim_s_per_wall_s on metro_mobility"},
    {"metro.handovers", "count", "per_layer", "metro", "m",
     "sim_s_per_wall_s on metro_mobility"},
    {"metro.reselects", "count", "per_layer", "metro", "m",
     "sim_s_per_wall_s on metro_mobility"},
    {"codec.metro_bytes", "bytes", "per_layer", "metro codec", "m",
     "call_ms_p50 on metro_mobility"},
    {"bench.tracing_overhead", "ratio", "per_layer", "bench", "psm",
     "none: untraced calls/s over traced calls/s, minus 1"},

    {"web.js_share_base_ms", "ms", "layer_detail", "web", "psm",
     "the base of web.js_share: host time of the calls replayed"},
    {"sim.events_fired", "count", "layer_detail", "sim", "pm",
     "sim_s_per_wall_s on metro_mobility"},
    {"sim.events_cancelled", "count", "layer_detail", "sim", "p",
     "sim_s_per_wall_s on metro_mobility"},
    {"sim.peak_heap", "count", "layer_detail", "sim", "p",
     "sim_s_per_wall_s on metro_mobility"},
    {"sim.wall_ns_per_event", "ns", "layer_detail", "sim", "pm",
     "sim_s_per_wall_s on metro_mobility"},
    {"net.fetch_attempts", "count", "layer_detail", "net", "p",
     "sim_s_per_wall_s on metro_mobility"},
    {"net.retries", "count", "layer_detail", "net", "pm",
     "sim_s_per_wall_s on metro_mobility"},
    {"radio.promotions", "count", "layer_detail", "radio", "p",
     "sim_s_per_wall_s on metro_mobility"},
    {"gbrt.train_s", "s", "layer_detail", "gbrt", "s",
     "setup_s on reading_sessions"},
    {"trace.generate_ms", "ms", "layer_detail", "trace", "s",
     "setup_s on reading_sessions"},
    {"gbrt.predict_us", "us", "layer_detail", "gbrt", "s",
     "call_ms_p50 on reading_sessions"},
    {"codec.metro_encode_ms", "ms", "layer_detail", "metro codec", "m",
     "call_ms_p50 on metro_mobility"},
    {"codec.metro_decode_ms", "ms", "layer_detail", "metro codec", "m",
     "call_ms_p50 on metro_mobility"},
    {"journal.append_ms", "ms", "layer_detail", "core.checkpoint", "m",
     "call_ms_p50 on metro_mobility"},
};

constexpr const char* kWorkloads[] = {"page_loads", "reading_sessions",
                                      "metro_mobility"};
constexpr int kSetupRepeats = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  long seconds = 0;
  bool trace = false;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <page_loads|"
               "reading_sessions|metro_mobility> --seed <n> --seconds <s> "
               "--trace <0|1>\n       perfbench --list\n",
               message.c_str());
  std::exit(2);
}

bool parse_u64(const char* text, std::uint64_t& out) {
  if (text == nullptr || *text == '\0') return false;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace") {
      usage_error("unknown argument '" + flag + "'");
    }
    if (!seen.insert(flag).second) usage_error(flag + " given twice");
    if (i + 1 >= argc) usage_error(flag + " needs a value");
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      opt.workload = value;
      bool known = false;
      for (const char* w : kWorkloads) known = known || opt.workload == w;
      if (!known) usage_error("unknown workload '" + opt.workload + "'");
    } else if (flag == "--seed") {
      if (!parse_u64(value, n)) {
        usage_error(std::string("--seed needs a non-negative integer, got '") +
                    value + "'");
      }
      opt.seed = n;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, n) || n < 1 || n > 3600) {
        usage_error(std::string("--seconds needs an integer in 1..3600, got '") +
                    value + "'");
      }
      opt.seconds = static_cast<long>(n);
    } else if (flag == "--trace") {
      const std::string v = value;
      if (v != "0" && v != "1") usage_error("--trace needs 0 or 1, got '" + v + "'");
      opt.trace = v == "1";
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (seen.count(required) == 0) usage_error(std::string(required) + " is required");
  }
  return opt;
}

void print_catalogue() {
  std::printf("%-24s %-6s %-13s %-16s %-6s %s\n", "metric", "unit", "kind",
              "layer", "where", "meant to move / measures");
  for (const CatalogueEntry& e : kCatalogue) {
    std::printf("%-24s %-6s %-13s %-16s %-6s %s\n", e.name, e.unit, e.kind,
                e.layer, e.where, e.moves);
  }
  std::printf("where: p = page_loads, s = reading_sessions, m = metro_mobility\n");
}

bool make_dirs(const std::string& path) {
  std::string partial;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!partial.empty() && mkdir(partial.c_str(), 0755) != 0 &&
          errno != EEXIST) {
        return false;
      }
    }
    if (i < path.size()) partial += path[i];
  }
  return true;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

/// Orders `reported` by the catalogue, keeps the entries of `kind`, and
/// fills a 0 for each layer this workload never exercises.  A layer the
/// workload does exercise but did not report is a benchmark bug.
std::vector<Metric> select(const std::vector<Metric>& reported,
                           const std::string& kind, char workload_letter) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : reported) by_name[m.name] = m;
  std::vector<Metric> out;
  for (const CatalogueEntry& e : kCatalogue) {
    if (kind != e.kind) continue;
    const bool exercised = std::strchr(e.where, workload_letter) != nullptr;
    const auto it = by_name.find(e.name);
    if (it != by_name.end()) {
      out.push_back(it->second);
    } else if (!exercised && kind == "per_layer") {
      out.push_back({e.name, 0.0, e.unit});
    } else if (exercised) {
      std::fprintf(stderr, "perfbench: metric %s was not reported\n", e.name);
      std::exit(3);
    }
  }
  return out;
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-24s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int run(const Options& opt) {
  const std::string dir = ".bench_build/out/" + opt.workload;
  if (!make_dirs(dir)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", dir.c_str());
    return 1;
  }
  std::unique_ptr<Workload> w;
  if (opt.workload == "page_loads") {
    w = make_page_loads(opt.seed);
  } else if (opt.workload == "reading_sessions") {
    w = make_reading_sessions(opt.seed);
  } else {
    w = make_metro_mobility(opt.seed, dir);
  }
  const char letter = opt.workload == "page_loads"         ? 'p'
                      : opt.workload == "reading_sessions" ? 's'
                                                           : 'm';
  std::printf("perfbench %s seed=%llu seconds=%ld trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);

  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const Clock::time_point t0 = Clock::now();
    w->setup();
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  Outcome outcome;
  const std::size_t min_calls = w->digest_calls();
  SpanRecorder untraced(false);
  SpanRecorder spans(true);
  std::vector<Metric> reported;
  LoopStats loop;
  const double seconds = static_cast<double>(opt.seconds);
  if (!opt.trace) {
    loop = run_closed_loop(*w, seconds, min_calls, untraced, outcome);
  } else {
    const LoopStats plain =
        run_closed_loop(*w, seconds / 2, min_calls, untraced, outcome);
    loop = run_closed_loop(*w, seconds / 2, min_calls, spans, outcome);
    outcome.attempt(plain.digest == loop.digest,
                    "traced digest differs from untraced digest");
    const double plain_rate = static_cast<double>(plain.calls) / plain.wall_s;
    const double traced_rate = static_cast<double>(loop.calls) / loop.wall_s;
    reported.push_back({"bench.tracing_overhead", plain_rate / traced_rate - 1,
                        "ratio"});
    w->layer_counts(loop, reported);
    w->replay(loop, spans, reported);
  }
  if (opt.seed == 1) {
    char expected[96];
    std::snprintf(expected, sizeof expected,
                  "digest %016llx differs from the recorded %016llx",
                  static_cast<unsigned long long>(loop.digest),
                  static_cast<unsigned long long>(w->seed1_digest()));
    outcome.attempt(loop.digest == w->seed1_digest(), expected);
  }
  w->verify(loop, outcome);

  const double tail_pct = tail_percentile(loop.call_ms.size());
  reported.push_back({"setup_s", median(setup_s), "s"});
  reported.push_back({"loads_per_s", loop.loads / loop.wall_s, "1/s"});
  reported.push_back({"sim_s_per_wall_s", loop.sim_s / loop.wall_s, "s/s"});
  reported.push_back({"call_ms_p50", median(loop.call_ms), "ms"});
  reported.push_back({"call_ms_tail", quantile(loop.call_ms, tail_pct / 100), "ms"});
  reported.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});

  const std::vector<Metric> e2e = select(reported, "end_to_end", letter);
  std::vector<Metric> detail;
  std::vector<Metric> layer;
  if (opt.trace) {
    layer = select(reported, "per_layer", letter);
    detail = select(reported, "layer_detail", letter);
  }
  print_metrics("end-to-end:", e2e);
  std::printf("  call_ms_tail is p%.2f of n=%zu calls; %zu calls in %.3f s\n",
              tail_pct, loop.call_ms.size(), loop.calls, loop.wall_s);

  std::printf("  failed_ratio %.6g (%llu failed of %llu attempted)\n",
              outcome.attempted() > 0
                  ? static_cast<double>(outcome.failed()) /
                        static_cast<double>(outcome.attempted())
                  : 0.0,
              static_cast<unsigned long long>(outcome.failed()),
              static_cast<unsigned long long>(outcome.attempted()));
  for (const std::string& m : outcome.messages()) {
    std::printf("  FAILED: %s\n", m.c_str());
  }
  std::printf("  digest %016llx over the first %zu calls\n",
              static_cast<unsigned long long>(loop.digest), min_calls);
  for (const std::string& line : w->headline()) {
    std::printf("simulated headline (deterministic, not a gate): %s\n",
                line.c_str());
  }
  if (opt.trace) {
    print_metrics("per-layer:", layer);
    print_metrics("layer detail:", detail);
    // The loop's call spans and the replay's layer spans are reported
    // apart: a layer's share is of the replay's host time, while
    // web.js_share above relates JS to the replayed calls' own host time.
    const auto times = spans.layer_times();
    double replay_ms = 0;
    for (const auto& [name, t] : times) {
      if (name != w->call_name()) replay_ms += t.self_ms;
    }
    std::printf("host-time spans: traced loop, then layer replay (self time, "
                "share of replay time %.3f ms):\n", replay_ms);
    for (const auto& [name, t] : times) {
      if (name == w->call_name()) {
        std::printf("  %-22s %12.3f ms   (loop) %8llu spans\n", name.c_str(),
                    t.self_ms, static_cast<unsigned long long>(t.count));
      } else {
        std::printf("  %-22s %12.3f ms %6.1f %% %8llu spans\n", name.c_str(),
                    t.self_ms, replay_ms > 0 ? 100 * t.self_ms / replay_ms : 0.0,
                    static_cast<unsigned long long>(t.count));
      }
    }
    const std::string trace_path = dir + "/host_spans.trace.json";
    if (!eab::write_file_atomic(trace_path, spans.chrome_trace_json())) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("chrome trace: %s\n", trace_path.c_str());
  }

  const bool correct = outcome.failed() == 0;
  std::string artifact = "{\"workload\": \"" + opt.workload +
                         "\", \"seed\": " + std::to_string(opt.seed) +
                         ", \"seconds\": " + std::to_string(opt.seconds) +
                         ", \"trace\": " + (opt.trace ? "1" : "0") +
                         ", \"correct\": " + (correct ? "true" : "false") +
                         ", \"attempted\": " + std::to_string(outcome.attempted()) +
                         ", \"failed\": " + std::to_string(outcome.failed()) +
                         ", \"calls\": " + std::to_string(loop.calls) +
                         ", \"call_samples\": " + std::to_string(loop.call_ms.size()) +
                         ", \"tail_percentile\": " + fmt(tail_pct) +
                         ", \"end_to_end\": " + metrics_json(e2e) +
                         ", \"per_layer\": " + metrics_json(layer) +
                         ", \"layer_detail\": " + metrics_json(detail) + "}\n";
  const std::string artifact_path =
      dir + (opt.trace ? "/result_traced.json" : "/result.json");
  if (!eab::write_file_atomic(artifact_path, artifact)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", artifact_path.c_str());
    return 1;
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted()),
              static_cast<unsigned long long>(outcome.failed()),
              metrics_json(opt.trace ? layer : e2e).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--list") == 0) {
    perfbench::print_catalogue();
    return 0;
  }
  const perfbench::Options options = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
