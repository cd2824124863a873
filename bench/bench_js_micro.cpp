// Microbenchmark of the MiniScript interpreter alone: every script of the
// generated Table-3 corpus (inline and external, both variants of all 20
// sites), run through a fresh Interpreter per page with no browser, network
// or simulator around it.  Page loads spend most of their host time here, so
// this isolates the layer the end-to-end numbers depend on.
//
// "ops/s" is interpreter ops (RunResult.ops: one per statement executed and
// expression evaluated) per wall-clock second of Interpreter::run, which
// includes lexing, parsing and the resolve pass.  The ops total is a pure
// function of the corpus and the engine's op-count contract, so it is
// printed and written as a checksum: a faster engine must reproduce it
// exactly.  Every pass must match the first one or the bench exits 1.
//
// Emits BENCH_js_micro.json.
#include "bench_common.hpp"

#include <chrono>
#include <cstdint>
#include <cstdio>

#include "corpus/generator.hpp"
#include "util/rng.hpp"
#include "web/html_parser.hpp"
#include "web/js.hpp"

namespace {

using namespace eab;
using Clock = std::chrono::steady_clock;

/// Counts what scripts do to the outside world; Math.random is seeded.
class CountingHost : public web::js::JsHost {
 public:
  explicit CountingHost(std::uint64_t seed) : rng_(seed) {}
  void document_write(const std::string& html) override { bytes += html.size(); }
  void request_resource(const std::string& url, net::ResourceKind) override {
    bytes += url.size();
  }
  double random() override { return rng_.uniform(); }

  std::uint64_t bytes = 0;

 private:
  Rng rng_;
};

/// A generated page's scripts in document order: inline first, then each
/// external script the markup references.
std::vector<std::string> page_scripts(const corpus::PageSpec& spec,
                                      std::uint64_t seed) {
  net::WebServer server;
  const std::string url = corpus::PageGenerator(seed).host_page(spec, server);
  const web::ParsedHtml html = web::parse_html(server.find(url)->body);
  std::vector<std::string> scripts = html.inline_scripts;
  for (const auto& ref : html.references) {
    if (ref.kind != net::ResourceKind::kJs) continue;
    if (const net::Resource* script = server.find(ref.url)) {
      scripts.push_back(script->body);
    }
  }
  return scripts;
}

struct Pass {
  double wall_s = 0;
  std::uint64_t ops = 0;
  std::uint64_t effect_bytes = 0;
};

Pass run_pass(const std::vector<std::vector<std::string>>& pages) {
  Pass pass;
  for (std::size_t page = 0; page < pages.size(); ++page) {
    CountingHost host(derive_seed(7, page));
    const auto start = Clock::now();
    web::js::Interpreter interpreter(host);
    for (const auto& script : pages[page]) interpreter.run(script);
    pass.wall_s += std::chrono::duration<double>(Clock::now() - start).count();
    pass.ops += interpreter.total_ops();
    pass.effect_bytes += host.bytes;
  }
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eab;
  if (bench::maybe_print_help(argc, argv, "bench_js_micro",
                              "MiniScript interpreter ops/s over the corpus scripts",
                              {})) {
    return 0;
  }
  bench::print_header("JS micro",
                      "MiniScript interpreter ops/s over the corpus scripts");

  constexpr int kRepeats = 5;  // best-of to shed scheduler noise
  std::vector<corpus::PageSpec> bases = corpus::mobile_benchmark();
  const auto full = corpus::full_benchmark();
  bases.insert(bases.end(), full.begin(), full.end());
  std::vector<std::vector<std::string>> pages;
  std::size_t scripts = 0;
  std::uint64_t source_bytes = 0;
  for (std::size_t i = 0; i < bases.size(); ++i) {
    for (const auto& spec : corpus::spec_variants(bases[i], 2, derive_seed(1, i))) {
      pages.push_back(page_scripts(spec, derive_seed(2, pages.size())));
      scripts += pages.back().size();
      for (const auto& script : pages.back()) source_bytes += script.size();
    }
  }

  const Pass first = run_pass(pages);
  Pass best = first;
  for (int r = 1; r < kRepeats; ++r) {
    const Pass pass = run_pass(pages);
    if (pass.ops != first.ops || pass.effect_bytes != first.effect_bytes) {
      std::fprintf(stderr, "bench_js_micro: pass %d ran %llu ops, first ran %llu\n",
                   r, static_cast<unsigned long long>(pass.ops),
                   static_cast<unsigned long long>(first.ops));
      return 1;
    }
    if (pass.wall_s < best.wall_s) best = pass;
  }
  const double ops_per_sec = static_cast<double>(best.ops) / best.wall_s;

  TextTable table({"pages", "scripts", "source KB", "ops per pass", "ops/s",
                   "ns/op"});
  table.add_row({std::to_string(pages.size()), std::to_string(scripts),
                 format_fixed(static_cast<double>(source_bytes) / 1024.0, 0),
                 std::to_string(best.ops), format_fixed(ops_per_sec, 0),
                 format_fixed(1e9 / ops_per_sec, 2)});
  std::printf("%s", table.render().c_str());
  std::printf("ops checksum: %llu  effect bytes: %llu  repeats: %d (best-of)\n",
              static_cast<unsigned long long>(best.ops),
              static_cast<unsigned long long>(best.effect_bytes), kRepeats);

  std::string json;
  bench::appendf(json,
                 "{\n"
                 "  \"pages\": %zu,\n"
                 "  \"scripts\": %zu,\n"
                 "  \"repeats\": %d,\n"
                 "  \"ops_checksum\": %llu,\n"
                 "  \"effect_bytes\": %llu,\n"
                 "  \"wall_s\": %.6f,\n"
                 "  \"js_ops_per_sec\": %.1f\n"
                 "}\n",
                 pages.size(), scripts, kRepeats,
                 static_cast<unsigned long long>(best.ops),
                 static_cast<unsigned long long>(best.effect_bytes), best.wall_s,
                 ops_per_sec);
  bench::write_artifact("BENCH_js_micro.json", json);
  return 0;
}
