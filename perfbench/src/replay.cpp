#include "replay.hpp"

#include <deque>
#include <functional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "browser/layout.hpp"
#include "corpus/generator.hpp"
#include "util/rng.hpp"
#include "web/css.hpp"
#include "web/html_parser.hpp"
#include "web/js.hpp"

namespace perfbench {

namespace {

using eab::net::ResourceKind;

/// Deterministic JS host: buffers the script's effects for the walker and
/// draws Math.random from a seeded stream, as the page loader does.
class ReplayHost : public eab::web::js::JsHost {
 public:
  explicit ReplayHost(std::uint64_t seed) : rng_(seed) {}
  void document_write(const std::string& html) override {
    writes.push_back(html);
  }
  void request_resource(const std::string& url, ResourceKind kind) override {
    requests.emplace_back(url, kind);
  }
  double random() override { return rng_.uniform(); }

  std::vector<std::string> writes;
  std::vector<std::pair<std::string, ResourceKind>> requests;

 private:
  eab::Rng rng_;
};

}  // namespace

std::string host_page(const eab::corpus::PageSpec& spec,
                      std::uint64_t generator_seed, eab::net::WebServer& server,
                      SpanRecorder& spans) {
  auto scope = spans.span("corpus.host_page");
  return eab::corpus::PageGenerator(generator_seed).host_page(spec, server);
}

std::uint64_t replay_load(const eab::net::WebServer& server, const std::string& url,
                       std::uint64_t random_seed, bool energy_aware,
                       SpanRecorder& spans) {
  auto load_scope = spans.span("replay.load");
  std::uint64_t js_ops = 0;
  ReplayHost host(random_seed);
  eab::web::js::Interpreter interpreter(host);
  eab::web::DomTree dom;
  std::deque<std::pair<std::string, ResourceKind>> queue;
  std::unordered_set<std::string> requested;

  const auto request = [&](const std::string& ref, ResourceKind kind) {
    if (!ref.empty() && requested.insert(ref).second) queue.emplace_back(ref, kind);
  };
  std::function<void(const std::string&)> parse_markup;
  const auto run_script = [&](const std::string& source) {
    eab::web::js::RunResult run;
    {
      auto scope = spans.span("web.js");
      run = interpreter.run(source);
    }
    js_ops += run.ops;
    auto writes = std::move(host.writes);
    auto requests = std::move(host.requests);
    host.writes.clear();
    host.requests.clear();
    for (const auto& [ref, kind] : requests) request(ref, kind);
    for (const auto& fragment : writes) parse_markup(fragment);
  };
  parse_markup = [&](const std::string& markup) {
    eab::web::ParsedHtml harvest;
    {
      auto scope = spans.span("web.html_parse");
      eab::web::parse_html_fragment(markup, dom.root(), harvest);
    }
    for (const auto& ref : harvest.references) request(ref.url, ref.kind);
    for (const auto& script : harvest.inline_scripts) run_script(script);
  };

  request(url, ResourceKind::kHtml);
  while (!queue.empty()) {
    const auto [ref, declared] = queue.front();
    queue.pop_front();
    const eab::net::Resource* resource = server.find(ref);
    if (resource == nullptr) continue;  // a 404: the loader skips it too
    const ResourceKind kind =
        resource->kind != ResourceKind::kOther ? resource->kind : declared;
    switch (kind) {
      case ResourceKind::kHtml:
        parse_markup(resource->body);
        break;
      case ResourceKind::kCss: {
        std::vector<std::string> refs;
        {
          auto scope = spans.span("web.css");
          if (energy_aware) {
            refs = eab::web::scan_css_urls(resource->body);
            eab::web::parse_css(resource->body);
          } else {
            refs = eab::web::parse_css(resource->body).url_refs;
          }
        }
        for (const auto& css_ref : refs) {
          request(css_ref, eab::net::kind_from_url(css_ref));
        }
        break;
      }
      case ResourceKind::kJs:
        run_script(resource->body);
        break;
      case ResourceKind::kImage:
      case ResourceKind::kFlash:
      case ResourceKind::kOther:
        break;
    }
  }
  {
    auto scope = spans.span("browser.layout");
    eab::browser::estimate_geometry(dom.root(), eab::browser::Viewport{});
  }
  return js_ops;
}

void add_page_layer_metrics(const SpanRecorder& spans, std::uint64_t js_ops,
                            double call_ms_base, std::vector<Metric>& layer) {
  const auto times = spans.layer_times();
  const auto self_ms = [&](const char* name) {
    const auto it = times.find(name);
    return it == times.end() ? 0.0 : it->second.self_ms;
  };
  const double js_ms = self_ms("web.js");
  layer.push_back({"web.js_ms", js_ms, "ms"});
  layer.push_back({"web.js_ops", static_cast<double>(js_ops), "count"});
  layer.push_back({"web.js_ops_per_s",
                   js_ms > 0 ? static_cast<double>(js_ops) / (js_ms / 1e3) : 0,
                   "1/s"});
  layer.push_back({"web.js_share", call_ms_base > 0 ? js_ms / call_ms_base : 0,
                   "ratio"});
  layer.push_back({"web.js_share_base_ms", call_ms_base, "ms"});
  layer.push_back({"web.html_parse_ms", self_ms("web.html_parse"), "ms"});
  layer.push_back({"web.css_ms", self_ms("web.css"), "ms"});
  layer.push_back({"browser.layout_ms", self_ms("browser.layout"), "ms"});
  layer.push_back({"corpus.host_page_ms", self_ms("corpus.host_page"), "ms"});
}

}  // namespace perfbench
