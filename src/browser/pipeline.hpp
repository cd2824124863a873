// The two page-load pipelines (the paper's primary contribution).
//
// kOriginal reproduces the stock browser of Fig 2: every arriving object is
// fully processed in place — CSS is parsed into rules, images are decoded,
// and the page is repeatedly reflowed/redrawn for intermediate display.
// Discovery of further resources therefore sits behind layout work in the
// CPU queue, spreading transmissions across the whole load (Fig 4's shape).
//
// kEnergyAware reproduces Section 4.1/4.2: phase one runs only computations
// that can generate transmissions (HTML grammar parse, CSS url() scan,
// JavaScript execution), fetching aggressively; one cheap text-only
// intermediate display is drawn after a third of the main document; when the
// last byte arrives the on_transmission_complete hook fires (the controller
// releases the radio there) and phase two performs all postponed layout
// computation — full CSS parse, image decode, style, layout, one final
// render.
//
// Both pipelines build their DOM through the same parsers, so tests can
// assert the paper's invariant: identical final DOM, identical bytes.
#pragma once

#include <functional>
#include <memory>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "browser/cost_model.hpp"
#include "browser/cpu.hpp"
#include "browser/features.hpp"
#include "browser/layout.hpp"
#include "net/http_client.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "web/css.hpp"
#include "web/html_parser.hpp"
#include "web/js.hpp"

namespace eab::browser {

/// Which computation ordering the load uses.
enum class PipelineMode { kOriginal, kEnergyAware };

/// Load-time policy knobs.
struct PipelineConfig {
  PipelineMode mode = PipelineMode::kOriginal;
  ComputeCostModel costs;
  Viewport viewport;
  /// Original pipeline: minimum spacing between intermediate reflow+redraw
  /// passes (Section 4.2: browsers update the display frequently; the update
  /// cadence is time-driven, throttled like real engines).
  Seconds redraw_min_interval = 2.0;
  /// Pages flagged mobile skip the energy-aware intermediate display
  /// (Section 4.2: mobile pages load in 1-2 s, an extra draw buys nothing).
  bool mobile_page = false;

  // --- ablation switches (energy-aware pipeline only) ----------------------
  /// Fetch discovery-bearing resources (HTML/CSS/JS) ahead of leaf images.
  bool priority_fetch = true;
  /// Scan CSS for url() references in phase 1 and defer the full parse to
  /// the layout phase; disabling parses stylesheets on arrival like the
  /// stock browser (only images/flash stay deferred).
  bool defer_css_parse = true;
  /// Draw the cheap text-only intermediate display on full-version pages.
  bool intermediate_text_display = true;

  friend bool operator==(const PipelineConfig&,
                         const PipelineConfig&) = default;
};

/// Timing and accounting results of one page load.
struct LoadMetrics {
  Seconds started = 0;
  Seconds transmission_done = 0;   ///< last byte of the last object
  Seconds first_display = 0;       ///< first (intermediate) screen draw
  Seconds final_display = 0;       ///< final complete draw = load finished
  Bytes bytes_fetched = 0;
  int objects_fetched = 0;
  int intermediate_displays = 0;   ///< draws before the final one
  Seconds js_time = 0;             ///< CPU seconds executing scripts

  // Degradation accounting (all zero on a healthy network).  A load that
  // loses resources still finishes: failed scripts are skipped in document
  // order, truncated markup flows through the fuzz-hardened parsers, and
  // missing images keep their DOM nodes — the layout estimator gives those
  // nodes default-sized placeholder boxes, exactly as a real engine draws a
  // broken-image frame.
  int failed_resources = 0;        ///< fetches settled with no body (404/timeout/abort)
  int truncated_resources = 0;     ///< partial bodies parsed
  int placeholder_images = 0;      ///< figure fetches that failed -> placeholder box
  int fetch_retries = 0;           ///< extra network attempts behind the objects

  // User abort (PageLoad::abort): the load finalized early.  final_display
  // is pinned to the abort instant, so total_time() and the energy window
  // cover exactly the partial load the user actually experienced.
  bool aborted = false;
  Seconds aborted_at = 0;          ///< when the user abandoned the load

  Seconds transmission_time() const { return transmission_done - started; }
  Seconds total_time() const { return final_display - started; }
  Seconds layout_tail_time() const { return final_display - transmission_done; }
  /// Fraction of settled fetches that ended degraded (failed or truncated).
  double degraded_fraction() const {
    const int settled = objects_fetched + failed_resources;
    return settled == 0
               ? 0.0
               : static_cast<double>(failed_resources + truncated_resources) /
                     static_cast<double>(settled);
  }
};

/// One page load in flight; create via start(), then run the simulator.
class PageLoad : public web::js::JsHost {
 public:
  using OnLoaded = std::function<void(const LoadMetrics&)>;
  using OnEvent = std::function<void()>;

  PageLoad(sim::Simulator& sim, net::HttpClient& client, CpuScheduler& cpu,
           PipelineConfig config, std::uint64_t seed);
  ~PageLoad() override;

  PageLoad(const PageLoad&) = delete;
  PageLoad& operator=(const PageLoad&) = delete;

  /// Begins loading `url`; `done` fires after the final display.
  void start(const std::string& url, OnLoaded done);

  /// User abort: gracefully cancels an in-flight load.  Every unsettled
  /// fetch is torn down through the HTTP client (which cancels link flows
  /// and releases RRC transfer markers), queued CPU work is dropped, and
  /// the load finalizes immediately with metrics().aborted set — the `done`
  /// callback passed to start() fires with the partial metrics.  Returns
  /// false (and does nothing) if the load never started or already
  /// finished.  The radio is left to its T1/T2 timers, exactly as when a
  /// real user navigates away.
  bool abort();

  /// True once abort() has finalized this load.
  bool aborted() const { return metrics_.aborted; }

  /// Fires the instant the last data transmission finishes (before the
  /// layout phase) — the energy-aware controller releases the radio here.
  void set_on_transmission_complete(OnEvent hook) { on_tx_complete_ = std::move(hook); }

  /// Attaches a trace recorder (nullptr detaches).  Recording is synchronous
  /// and never schedules events, so behavior is identical either way.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

  /// The (final) document; valid after the load completes.
  const web::DomTree& dom() const { return doc_.dom; }

  /// Table 1 features; valid after the load completes.
  const PageFeatures& features() const { return features_; }
  const LoadMetrics& metrics() const { return metrics_; }
  const PageGeometry& geometry() const { return geometry_; }

  // --- JsHost --------------------------------------------------------------
  void document_write(const std::string& html) override;
  void request_resource(const std::string& url, net::ResourceKind kind) override;
  double random() override;

 private:
  enum class Phase { kIdle, kTransmission, kLayout, kDone };

  void issue_fetch(const std::string& url, net::ResourceKind kind);
  void on_resource(const net::FetchResult& result, net::ResourceKind kind);
  void handle_html(const net::Resource& resource, bool is_main);
  void handle_css(const net::Resource& resource);
  void handle_binary(const net::Resource& resource);
  /// Stashes an arrived (or failed: nullptr) external script and executes
  /// every script whose turn has come. Scripts share the page's global
  /// context and MUST run in document order (Section 4.1), even though the
  /// two pipelines fetch them on different schedules.
  void settle_script(const std::string& url, const net::Resource* resource);
  void pump_scripts();
  void run_script(const std::string& source);
  void after_discovery(const web::ParsedHtml& harvest);
  void maybe_intermediate_display();
  void submit_reflow();
  void work_started();
  void work_finished();
  void transmission_complete();
  void begin_layout_phase();
  void finish_load();
  /// Fills features_/geometry_ from the (possibly partial) document.
  void compute_outputs();
  Seconds style_layout_render_cost() const;

  /// True once the load has finalized (completed or aborted).  Callbacks
  /// still in flight — a CPU task that was already running at abort time, a
  /// fetch settled by HttpClient::abort_all — check this and return without
  /// touching metrics or spawning work.
  bool dead() const { return phase_ == Phase::kDone; }

  /// Records one kStageRun span ending now (the CPU task that just ran).
  void trace_stage(obs::Stage stage, Seconds cost);

  sim::Simulator& sim_;
  net::HttpClient& client_;
  CpuScheduler& cpu_;
  PipelineConfig config_;
  obs::TraceRecorder* trace_ = nullptr;
  Rng rng_;

  Phase phase_ = Phase::kIdle;
  int outstanding_ = 0;  ///< fetches + discovery CPU tasks in flight
  std::string main_url_;
  OnLoaded on_loaded_;
  OnEvent on_tx_complete_;

  web::ParsedHtml doc_;  ///< the DOM plus harvest accumulators
  /// Backing storage for partial (truncated) bodies: the pipeline keeps
  /// `const Resource*` pointers in its deferred/script maps, so a resource
  /// synthesized by the HTTP client must live as long as the load does.
  std::vector<std::shared_ptr<const net::Resource>> retained_resources_;
  std::set<std::string> requested_urls_;
  std::vector<std::string> script_order_;  ///< external scripts, document order
  std::size_t next_script_ = 0;            ///< index into script_order_
  std::map<std::string, const net::Resource*> arrived_scripts_;
  std::unique_ptr<web::js::Interpreter> interpreter_;
  std::vector<std::string> pending_document_writes_;
  std::vector<std::pair<std::string, net::ResourceKind>> pending_requests_;

  // Layout-phase backlog (energy-aware mode defers these).
  std::vector<const net::Resource*> deferred_css_;
  std::vector<const net::Resource*> deferred_images_;
  std::vector<web::StyleSheet> sheets_;
  Bytes decoded_image_bytes_ = 0;
  int css_requested_ = 0;   ///< stylesheets fetched so far
  int css_settled_ = 0;     ///< stylesheets parsed (original mode) or 404ed

  Seconds last_byte_at_ = 0;
  Seconds last_redraw_at_ = 0;
  TaskId pending_reflow_;
  int processed_since_redraw_ = 0;
  bool redraw_queued_ = false;
  bool intermediate_drawn_ = false;

  LoadMetrics metrics_;
  PageFeatures features_;
  PageGeometry geometry_;

  // Table-1 accounting.
  Bytes page_bytes_without_figures_ = 0;
  Bytes figure_bytes_ = 0;
  int figure_count_ = 0;
  int js_file_count_ = 0;
};

}  // namespace eab::browser
