// CPU cost model of browser computations on a ~2009 smartphone.
//
// The paper's technique rests on the relative cost of the two computation
// classes (Section 2.2): data-transmission computation (HTML parse, CSS
// reference scan, JavaScript execution) versus layout computation (full CSS
// rule extraction, image decoding, style formatting, layout, render).  These
// per-unit costs are calibrated against the paper's measurements: full-page
// layout work is 40-70 % of total processing time (their ref [7]) and the
// espn.go.com/sports benchmark needs tens of seconds end to end on the
// Android Dev Phone 2.
#pragma once

#include "util/units.hpp"

namespace eab::browser {

/// Per-unit CPU costs (seconds). All are whole-phone CPU-seconds; the power
/// model charges cpu_busy_extra watts while any task runs.
struct ComputeCostModel {
  // -- data transmission computation ---------------------------------------
  Seconds html_parse_per_kb = 0.018;  ///< tokenize + tree build + harvest
  Seconds css_scan_per_kb = 0.004;    ///< url()/@import reference scan only
  Seconds js_per_kilo_op = 0.0045;    ///< interpreter cost per 1000 ops

  // -- layout computation ---------------------------------------------------
  Seconds css_parse_per_kb = 0.030;       ///< full rule extraction
  Seconds image_decode_per_kb = 0.005;    ///< JPEG/PNG decode
  Seconds style_format_per_node = 0.0007; ///< match rules against one node
  Seconds layout_per_node = 0.0009;       ///< box placement per DOM node
  Seconds render_per_node = 0.0006;       ///< rasterise one laid-out node
  Seconds display_overhead = 0.12;        ///< fixed per screen draw

  /// Reflow touches the whole tree (paper Section 4.2: a reflow recalculates
  /// the layout of parents and children and then everything is redrawn) —
  /// modelled as layout+render over every current node, times this factor.
  double reflow_factor = 2.4;

  /// Simplified text-only intermediate display (energy-aware pipeline):
  /// fraction of the full per-node render cost it pays.
  double text_display_discount = 0.25;

  // -- derived helpers -------------------------------------------------------
  Seconds html_parse(Bytes size) const {
    return html_parse_per_kb * to_kilobytes(size);
  }
  Seconds css_scan(Bytes size) const {
    return css_scan_per_kb * to_kilobytes(size);
  }
  Seconds css_parse(Bytes size) const {
    return css_parse_per_kb * to_kilobytes(size);
  }
  Seconds js_run(std::uint64_t ops) const {
    return js_per_kilo_op * static_cast<double>(ops) / 1000.0;
  }
  Seconds image_decode(Bytes size) const {
    return image_decode_per_kb * to_kilobytes(size);
  }

  friend bool operator==(const ComputeCostModel&,
                         const ComputeCostModel&) = default;
};

}  // namespace eab::browser
