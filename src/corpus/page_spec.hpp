// Benchmark page specifications (the paper's Table 3).
//
// Each spec describes the composition of one synthetic page: how much HTML,
// how many stylesheets/scripts/images, how resources reference one another
// (CSS url() chains, JS-driven loads, document.write), and the site's topic
// (used by the trace generator's interest model).  The generator turns a
// spec into real HTML/CSS/MiniScript hosted on a WebServer, so both
// pipelines exercise genuine parsing and execution.
//
// Sizes are calibrated to the paper's measurements where it gives them
// (espn.go.com/sports: 760 KB total) and to typical 2009-era page weights
// elsewhere (mobile versions: tens of KB; full versions: hundreds).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace eab::corpus {

/// Content topics for the interest model (Section 4.3.4 motivates these).
enum class Topic {
  kNews,
  kSports,
  kGames,
  kFinance,
  kShopping,
  kSocial,
  kVideo,
  kTravel,
};

constexpr int kTopicCount = 8;
const char* to_string(Topic topic);

/// Composition of one synthetic benchmark page.
struct PageSpec {
  std::string site;          ///< e.g. "espn.go.com/sports"
  bool mobile = false;       ///< mobile version (small, simple layout)?
  Topic topic = Topic::kNews;

  Bytes html_bytes = kilobytes(40);  ///< main document size
  int css_files = 2;
  Bytes css_bytes = kilobytes(15);   ///< per stylesheet
  int css_images = 4;                ///< images referenced via url() per sheet
  Bytes css_image_bytes = kilobytes(6);

  int js_files = 2;
  Bytes js_bytes = kilobytes(8);     ///< per script file (padding-adjusted)
  int js_busy_iterations = 1500;     ///< busy-loop scale (drives run time)
  int js_images = 3;                 ///< images loaded from each script
  Bytes js_image_bytes = kilobytes(8);

  int html_images = 10;              ///< <img> tags in the document
  Bytes image_bytes = kilobytes(14); ///< per HTML-referenced image
  int flash_objects = 0;
  Bytes flash_bytes = kilobytes(50);

  int anchors = 30;                  ///< secondary URLs
  int paragraphs = 24;               ///< text blocks (drives page height)

  /// Main document URL for this spec.
  std::string main_url() const { return "http://" + site + "/index.html"; }

  /// Total bytes across every resource the page pulls in.
  Bytes total_bytes() const;

  friend bool operator==(const PageSpec&, const PageSpec&) = default;
};

/// The ten mobile-version benchmark pages (Table 3, left column).
std::vector<PageSpec> mobile_benchmark();
/// The ten full-version benchmark pages (Table 3, right column).
std::vector<PageSpec> full_benchmark();

/// The two featured pages of Figs 8(b)-10(b).
PageSpec espn_sports_spec();  ///< espn.go.com/sports (full, 760 KB)
PageSpec m_cnn_spec();        ///< m.cnn.com (mobile)

/// Derives `count` size-jittered variants of a spec (distinct sub-pages of
/// the same site; used to diversify the browsing trace). Deterministic in
/// `seed`. Variant 0 is the spec itself.
std::vector<PageSpec> spec_variants(const PageSpec& base, int count,
                                    std::uint64_t seed);

}  // namespace eab::corpus
