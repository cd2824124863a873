// HTTP client over the simulated 3G path.
//
// Fetches resources from a WebServer with a bounded number of parallel
// connections (mobile browsers of the paper's era used 2-4).  Every fetch:
//   1. waits for a free connection slot,
//   2. asks the RRC machine for dedicated channels (promotion if needed),
//   3. spends RTT + server think time for the request/first byte,
//   4. drains the response body through the processor-shared downlink.
// The radio transfer marker is held from request send to last byte, so the
// power model sees exactly when the air interface is busy.
//
// Robustness: each network attempt may run under a watchdog timeout
// (RetryPolicy) and may be perturbed by an attached FaultInjector.  Failed
// attempts — lost connections, blackholed responses, watchdog expiries —
// are retried with exponential backoff up to a bounded count; every retry
// re-drives the radio (channel request, transfer marker) so failed
// transfers burn realistic promotion and tail energy, and an abandoned
// attempt always releases its transfer marker before the retry or the
// terminal report.  A fetch therefore always settles with a terminal
// FetchStatus; truncated bodies are delivered as partial resources for the
// fuzz-hardened parsers to chew on.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "net/cache.hpp"
#include "net/fault.hpp"
#include "obs/trace.hpp"
#include "net/shared_link.hpp"
#include "net/web_server.hpp"
#include "radio/rrc.hpp"
#include "sim/simulator.hpp"

namespace eab::net {

/// Terminal outcome of one fetch (after all retries).
enum class FetchStatus {
  kOk,         ///< full body delivered
  kNotFound,   ///< the server does not host the URL (404)
  kTruncated,  ///< connection died mid-body; a partial body was delivered
  kTimedOut,   ///< watchdog expired on every attempt; nothing usable arrived
  kAborted,    ///< connection lost on every attempt before the response
  kRadioLost,  ///< radio-link failure killed the final attempt
};

const char* to_string(FetchStatus status);

/// Watchdog and retry knobs.  The defaults keep the zero-fault network
/// byte-identical to a client without any retry machinery: no watchdog
/// event is ever scheduled when request_timeout is 0, and the retry path
/// is only reachable through faults or timeouts.
struct RetryPolicy {
  /// Per-attempt watchdog; 0 disables it (a blackholed response then hangs
  /// the load, so enable it whenever stalls are possible).
  Seconds request_timeout = 0.0;
  /// Extra attempts after the first (0 = fail fast).
  int max_retries = 2;
  /// Backoff before retry n (1-based) is backoff_initial * factor^(n-1).
  Seconds backoff_initial = 0.5;
  double backoff_factor = 2.0;

  Seconds backoff_before_retry(int retry_number) const {
    Seconds wait = backoff_initial;
    for (int i = 1; i < retry_number; ++i) wait *= backoff_factor;
    return wait;
  }

  friend bool operator==(const RetryPolicy&, const RetryPolicy&) = default;
};

/// Result of one fetch.
struct FetchResult {
  const Resource* resource = nullptr;  ///< nullptr unless kOk / kTruncated
  /// Backing storage when `resource` is a synthesized partial body
  /// (kTruncated); keep this alive for as long as `resource` is used.
  std::shared_ptr<const Resource> owned;
  FetchStatus status = FetchStatus::kNotFound;
  int attempts = 1;  ///< network attempts consumed (0 for a cache hit)
  std::string url;
  Seconds requested_at = 0;
  Seconds completed_at = 0;
};

/// Statistics over the life of a client.
struct HttpClientStats {
  std::size_t fetches = 0;      ///< settled fetches, any status, cache included
  std::size_t not_found = 0;
  std::size_t cache_hits = 0;
  std::size_t retries = 0;      ///< extra attempts scheduled after failures
  std::size_t timeouts = 0;     ///< watchdog expiries (attempt-level)
  std::size_t truncated = 0;    ///< fetches settled with a partial body
  std::size_t connection_losses = 0;  ///< attempts killed by connection loss
  std::size_t radio_losses = 0;  ///< attempts killed by radio-link failure
  std::size_t failed = 0;  ///< fetches settled kTimedOut/kAborted/kRadioLost
  Bytes bytes_fetched = 0;      ///< full + partial bytes actually delivered
  Seconds first_request_at = -1;
  /// When the most recent fetch settled — network last byte, cache read
  /// completion, or terminal failure.  Cache hits count: the transfer
  /// window reported for a cache-heavy revisit load ends at the last
  /// *delivery*, wherever the bytes came from.
  Seconds last_byte_at = 0;
};

/// Bounded-parallelism HTTP client bound to one server, link and radio.
class HttpClient {
 public:
  using OnFetched = std::function<void(const FetchResult&)>;

  HttpClient(sim::Simulator& sim, const WebServer& server, SharedLink& link,
             radio::RrcMachine& rrc, radio::LinkConfig link_config,
             int max_parallel = 3);

  /// Attaches a browser cache (not owned; may outlive this client — caches
  /// persist across page loads within a session). Cache hits complete after
  /// a local lookup latency without touching the radio.
  void set_cache(ResourceCache* cache) { cache_ = cache; }

  /// Attaches a fault injector (not owned; must outlive the client).  Null
  /// detaches.  Without one, every attempt proceeds fault-free.
  void set_fault_injector(const FaultInjector* injector) { faults_ = injector; }

  /// Replaces the watchdog/retry policy for subsequently started attempts.
  void set_retry_policy(RetryPolicy policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  /// Attaches a trace recorder (nullptr detaches).  Recording is synchronous
  /// and never schedules events, so behavior is identical either way.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

  /// Queues a fetch; `done` fires when the fetch settles — full body, partial
  /// body, 404, or terminal network failure after retries.  High-priority
  /// requests jump ahead of queued normal ones (the energy-aware pipeline
  /// fetches discovery-bearing resources — HTML/CSS/JS — before leaf
  /// images, so the reference chain unrolls as early as possible).
  void fetch(const std::string& url, OnFetched done, bool high_priority = false);

  /// Gracefully cancels every unsettled fetch — queued and in flight — as
  /// part of a user abort.  Each one settles terminally with kAborted (its
  /// callback fires, its trace settle event is recorded, so queued/settled
  /// counts stay balanced for the auditor), every in-flight attempt's
  /// watchdog and pending events are cancelled, its link flow is torn down,
  /// and its RRC transfer marker is released.  Returns the number of
  /// fetches aborted.  Idempotent: a client with nothing unsettled is a
  /// no-op.
  std::size_t abort_all();

  /// Radio-link failure: tears down every in-flight attempt (watchdog,
  /// pending events, link flow, RRC transfer marker) and re-queues each one
  /// under the existing retry budget; a fetch whose budget is spent settles
  /// terminally as kRadioLost.  Invoked from the RRC machine's on_rlf hook
  /// while the radio is still in the failing state, so the transfer markers
  /// are released legally on DCH.  Queued (not yet started) fetches are
  /// untouched — they never reached the radio.  Returns the number of
  /// attempts torn down.
  std::size_t on_radio_lost();

  /// Number of requests queued but not yet started.
  std::size_t queued() const { return queue_.size(); }
  /// Number of requests currently holding a connection slot (a request in
  /// backoff between attempts keeps its slot: the connection is dedicated
  /// to the request until it settles).
  int in_flight() const { return in_flight_; }

  const HttpClientStats& stats() const { return stats_; }

 private:
  struct PendingRequest {
    std::string url;
    OnFetched done;
  };

  /// One fetch's mutable state across its attempts.  A shared_ptr keeps it
  /// alive through the chain of scheduled callbacks; `attempt` doubles as a
  /// generation counter so stale callbacks from an aborted attempt (e.g. a
  /// channel-ready notification arriving after the watchdog fired) are
  /// recognised and dropped.
  struct RequestState {
    std::string url;
    OnFetched done;
    Seconds requested_at = 0;
    int attempt = 0;             ///< 1-based; bumped by every run_attempt
    bool settled = false;        ///< terminal callback delivered
    /// False once abort_attempt abandoned the current attempt.  The attempt
    /// number alone cannot tell a live attempt from an abandoned one between
    /// the watchdog firing and the backoff retry bumping the counter — and a
    /// channel-ready callback landing in that window (routine when the radio
    /// camps out of service) must not touch the radio.
    bool attempt_live = false;
    bool transfer_active = false;  ///< begin_transfer not yet matched
    sim::EventId timeout_event;
    sim::EventId setup_event;
    SharedLink::FlowId flow = 0;
    std::uint32_t trace_name = 0;  ///< interned url (0 when tracing is off)
  };
  using StatePtr = std::shared_ptr<RequestState>;

  void pump();
  void start_request(PendingRequest request);
  void run_attempt(const StatePtr& state);
  /// True when a callback belonging to attempt `attempt` is stale.
  static bool stale(const RequestState& state, int attempt) {
    return state.settled || state.attempt != attempt || !state.attempt_live;
  }
  /// Tears down the current attempt's in-flight pieces: watchdog, pending
  /// first-byte event, link flow, and — critically — the RRC transfer
  /// marker, which must never outlive an abandoned attempt.
  void abort_attempt(RequestState& state);
  void on_timeout(const StatePtr& state, int attempt);
  /// Schedules the next attempt after backoff, or settles terminally.
  void retry_or_fail(const StatePtr& state, FetchStatus failure);
  /// Settles the fetch and frees its connection slot.
  void finish(const StatePtr& state, const Resource* resource,
              std::shared_ptr<const Resource> owned, FetchStatus status,
              Bytes delivered_bytes);

  sim::Simulator& sim_;
  const WebServer& server_;
  SharedLink& link_;
  radio::RrcMachine& rrc_;
  radio::LinkConfig link_config_;
  int max_parallel_;
  ResourceCache* cache_ = nullptr;
  const FaultInjector* faults_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  RetryPolicy retry_;
  int in_flight_ = 0;
  std::deque<PendingRequest> queue_;
  /// Unsettled requests holding a connection slot (for abort_all).
  std::vector<StatePtr> active_;
  HttpClientStats stats_;
};

}  // namespace eab::net
