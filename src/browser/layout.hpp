// Page geometry estimation.
//
// A compact flow-layout calculator: block elements stack vertically, text
// wraps at the viewport width, images occupy their declared (or default)
// sizes.  It provides the "Page Height"/"Page Width" features of Table 1 and
// the node counts that drive style/layout/render costs.
#pragma once

#include <cstddef>

#include "util/units.hpp"
#include "web/dom.hpp"

namespace eab::browser {

/// Viewport of the simulated handset browser.
struct Viewport {
  int width_px = 320;   ///< Android Dev Phone 2 portrait CSS pixels
  int avg_char_width_px = 7;
  int line_height_px = 16;
  int default_image_height_px = 120;
  int default_image_width_px = 160;

  friend bool operator==(const Viewport&, const Viewport&) = default;
};

/// Computed page geometry.
struct PageGeometry {
  int width_px = 0;    ///< widest laid-out element
  int height_px = 0;   ///< total scroll height
  std::size_t element_nodes = 0;
  std::size_t text_nodes = 0;
  std::size_t image_nodes = 0;
};

/// Lays the DOM out against the viewport and measures it.
PageGeometry estimate_geometry(const web::DomNode& root, const Viewport& viewport);

}  // namespace eab::browser
