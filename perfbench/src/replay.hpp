// Layer replay: walks one generated page through the web and browser
// layers' public entry points, outside the simulator, under host-time spans.
//
// The walk follows the page loader's discovery order — main document,
// then every referenced stylesheet and script as it is discovered, inline
// and external scripts run through one persistent interpreter whose
// document.write() fragments are parsed back into the DOM — and ends with
// one geometry estimate.  It costs what the loader's host-side work costs
// without the event engine, radio or link: the base for each layer's share.
#pragma once

#include <cstdint>
#include <string>

#include "corpus/page_spec.hpp"
#include "harness.hpp"
#include "net/web_server.hpp"

namespace perfbench {

/// Hosts `spec` the way a load does (PageGenerator(generator_seed)) under
/// a "corpus.host_page" span; returns the main URL.
std::string host_page(const eab::corpus::PageSpec& spec,
                      std::uint64_t generator_seed, eab::net::WebServer& server,
                      SpanRecorder& spans);

/// Replays one load of `url` from `server` under a "replay.load" span with
/// "web.html_parse", "web.css", "web.js" and "browser.layout" children.
/// `random_seed` seeds Math.random; `energy_aware` selects the reorganized
/// pipeline's stylesheet handling (reference scan, then full parse).
/// Returns the interpreter ops the page's scripts executed.
std::uint64_t replay_load(const eab::net::WebServer& server, const std::string& url,
                       std::uint64_t random_seed, bool energy_aware,
                       SpanRecorder& spans);

/// Adds the page-layer metrics shared by every workload: web.js_ms,
/// web.js_ops, web.js_ops_per_s, web.js_share (JS self time over
/// `call_ms_base`, the host time of the calls whose inputs were replayed,
/// which is reported as web.js_share_base_ms), web.html_parse_ms,
/// web.css_ms, browser.layout_ms, corpus.host_page_ms.
void add_page_layer_metrics(const SpanRecorder& spans, std::uint64_t js_ops,
                            double call_ms_base, std::vector<Metric>& layer);

}  // namespace perfbench
