#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>

namespace perfbench {

void Digest::bytes(std::string_view data) {
  for (const char c : data) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

SpanRecorder::Scope::Scope(SpanRecorder* rec, const char* name) : rec_(rec) {
  if (rec_ == nullptr) return;
  Span span;
  span.name = name;
  span.parent = rec_->stack_.empty() ? 0 : rec_->stack_.back() + 1;
  index_ = rec_->spans_.size();
  rec_->spans_.push_back(span);
  rec_->stack_.push_back(index_);
  rec_->spans_.back().start = Clock::now();
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) return;
  Span& span = rec_->spans_[index_];
  span.end = Clock::now();
  span.open = false;
  rec_->stack_.pop_back();
}

std::map<std::string, SpanRecorder::LayerTime> SpanRecorder::layer_times()
    const {
  // Child durations are subtracted from their parent's; spans of one
  // caller never overlap, so the covered part is the plain sum.
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.open || s.parent == 0) continue;
    child_ms[s.parent - 1] += seconds_between(s.start, s.end) * 1e3;
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.open) continue;
    const double ms = seconds_between(s.start, s.end) * 1e3;
    LayerTime& t = out[s.name];
    t.total_ms += ms;
    t.self_ms += ms - child_ms[i];
    ++t.count;
  }
  return out;
}

std::string SpanRecorder::chrome_trace_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  const Clock::time_point origin =
      spans_.empty() ? Clock::now() : spans_.front().start;
  char line[256];
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.open) continue;
    const double ts = seconds_between(origin, s.start) * 1e6;
    const double dur = seconds_between(s.start, s.end) * 1e6;
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%zu}}",
                  first ? "" : ",\n", s.name, ts, dur, i + 1, s.parent);
    out += line;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

void Outcome::attempt(bool ok, const std::string& what_if_failed) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (messages_.size() < 8) messages_.push_back(what_if_failed);
}

LoopStats run_closed_loop(Workload& w, double seconds, std::size_t min_calls,
                          SpanRecorder& spans, Outcome& outcome) {
  LoopStats loop;
  w.begin_loop();
  const std::size_t digest_calls = w.digest_calls();
  Digest digest;
  const Clock::time_point start = Clock::now();
  Clock::time_point now = start;
  for (std::size_t i = 0;
       i < min_calls || seconds_between(start, now) < seconds; ++i) {
    CallResult result;
    bool ok = true;
    std::string error;
    const Clock::time_point call_start = Clock::now();
    try {
      auto scope = spans.span(w.call_name());
      result = w.call(i);
    } catch (const std::exception& e) {
      ok = false;
      error = e.what();
    } catch (...) {
      ok = false;
      error = "unknown exception";
    }
    now = Clock::now();
    const double call_ms = seconds_between(call_start, now) * 1e3;
    outcome.attempt(ok, "call " + std::to_string(i) + " threw: " + error);
    if (result.sample_ms.empty()) {
      loop.call_ms.push_back(call_ms);
    } else {
      loop.call_ms.insert(loop.call_ms.end(), result.sample_ms.begin(),
                          result.sample_ms.end());
    }
    loop.loads += result.loads;
    loop.sim_s += result.sim_s;
    if (i < digest_calls) {
      loop.hashes.push_back(result.hash);
      digest.u64(result.hash);
      loop.window_ms += call_ms;
    }
    ++loop.calls;
  }
  loop.wall_s = seconds_between(start, now);
  loop.digest = digest.value();
  return loop;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double tail_percentile(std::size_t n) {
  if (n <= 20) return 50.0;
  return 100.0 * (1.0 - 10.0 / static_cast<double>(n));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
