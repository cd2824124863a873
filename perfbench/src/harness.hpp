// Shared pieces of the benchmark: host clock, closed-loop runner, host-time
// spans, sample statistics and the result record every workload fills.
//
// Every workload is a closed loop with one caller: call i+1 starts when
// call i returns.  Inputs are a pure function of (seed, i), so two loops
// over the same seed process the same inputs in the same order, and the
// first `digest_calls()` results fold into a digest that must not depend on
// whether the loop was traced.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// FNV-1a over a stream of values: the digest of a workload's
/// deterministic simulated results.
class Digest {
 public:
  void bytes(std::string_view data);
  void u64(std::uint64_t v);
  void f64(double v);  ///< bit pattern, so -0.0 and NaN payloads count
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Host-time spans kept in memory and written out once as Chrome
/// trace-event JSON.  A disabled recorder records nothing (Scope is then a
/// no-op), so the untraced loop pays one branch per call.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    std::size_t index_ = 0;
  };

  /// Opens a span under the innermost open one; it closes when the returned
  /// scope dies.  `name` must be a string literal.
  Scope span(const char* name) { return Scope(enabled_ ? this : nullptr, name); }

  bool enabled() const { return enabled_; }

  struct LayerTime {
    double self_ms = 0;   ///< duration minus the part child spans cover
    double total_ms = 0;
    std::uint64_t count = 0;
  };
  /// Per span name, over every closed span.
  std::map<std::string, LayerTime> layer_times() const;

  /// {"traceEvents":[...]} with one complete ("X") event per span, host
  /// microseconds since the recorder's first span; args carry the span id
  /// and its parent's id.
  std::string chrome_trace_json() const;

 private:
  struct Span {
    const char* name = nullptr;
    std::size_t parent = 0;  ///< index + 1; 0 = root
    Clock::time_point start;
    Clock::time_point end;
    bool open = true;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;  ///< indices of open spans
};

/// One reported number.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Failed operations against attempted ones.  A call that throws, any
/// result check that fails and a digest mismatch each count as one failed
/// operation; the first few messages are kept for the log.
class Outcome {
 public:
  void attempt(bool ok, const std::string& what_if_failed);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// What one top-level call returns to the loop.
struct CallResult {
  double loads = 0;      ///< page loads (sessions on metro) completed
  double sim_s = 0;      ///< simulated UE-seconds covered
  std::uint64_t hash = 0;
  /// Host time of each sub-call when one call bundles several (a metro
  /// sweep reports one sample per sweep point); empty = time the call.
  std::vector<double> sample_ms;
};

/// Totals of one closed loop.
struct LoopStats {
  std::size_t calls = 0;
  std::vector<double> call_ms;
  double wall_s = 0;
  double loads = 0;
  double sim_s = 0;
  std::vector<std::uint64_t> hashes;  ///< of the first digest_calls() calls
  std::uint64_t digest = 0;
  double window_ms = 0;  ///< host time of the first digest_calls() calls
};

/// One workload.  The harness times setup(), drives call() in a closed
/// loop, and in the traced run asks for a layer replay of the calls it
/// traced.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Span name of one top-level call, e.g. "core.run_single".
  virtual const char* call_name() const = 0;
  /// Generates inputs from the seed and builds everything the calls need.
  /// Timed and repeated by the harness; must be idempotent.
  virtual void setup() = 0;
  /// Starts a loop from input 0 with fresh per-loop program state.
  virtual void begin_loop() = 0;
  /// One top-level call on input i.  A call whose result fails a check
  /// throws; the loop counts it as one failed operation and carries on.
  virtual CallResult call(std::size_t i) = 0;
  /// Calls whose results form the digest (also the replay window).
  virtual std::size_t digest_calls() const = 0;
  /// Digest of the first digest_calls() results for seed 1.
  virtual std::uint64_t seed1_digest() const = 0;
  /// Reference checks after the loop (e.g. another execution path).
  virtual void verify(const LoopStats& loop, Outcome& outcome) = 0;
  /// Replays the inputs of the first digest_calls() calls through each
  /// layer's public entry point under `spans`, and adds per-layer metrics.
  /// `traced` is the loop whose calls are replayed.
  virtual void replay(const LoopStats& traced, SpanRecorder& spans,
                      std::vector<Metric>& layer) = 0;
  /// Counts the program accumulated over the last loop (traced run).
  virtual void layer_counts(const LoopStats& loop,
                            std::vector<Metric>& layer) = 0;
  /// Human-readable lines: the simulated headline against the paper.
  virtual std::vector<std::string> headline() const = 0;
};

/// Runs calls 0, 1, 2, ... until `seconds` have passed and at least
/// `min_calls` calls ran.  With `spans` enabled each call is one span.
LoopStats run_closed_loop(Workload& w, double seconds, std::size_t min_calls,
                          SpanRecorder& spans, Outcome& outcome);

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);
/// The highest percentile with at least ten samples beyond it:
/// 100 * (1 - 10 / n) for n > 20, the median otherwise.
double tail_percentile(std::size_t n);

/// High-water resident set of this process in MiB.
double peak_rss_mb();

}  // namespace perfbench
