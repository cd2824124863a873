// UMTS RRC configuration and power model constants.
//
// Timer values follow the paper (Section 2.1): T1 ~ 4 s controls DCH->FACH
// demotion, T2 ~ 15 s controls FACH->IDLE release.  Power levels reproduce
// the paper's Table 5 (whole-phone measurements including display and system
// maintenance).  Promotion/release signalling latencies and powers are
// calibrated so that the Fig 3 experiment reproduces the paper's observation:
// dropping to IDLE after a transfer only pays off when the next transfer is
// more than ~9 s away.
#pragma once

#include "util/units.hpp"

namespace eab::radio {

/// The three RRC states of Section 2.1, plus the coverage-loss state the
/// radio failure model adds (a UE that lost its serving cell and is hunting
/// for coverage; see DESIGN.md "Radio failure model").
enum class RrcState {
  kIdle,  ///< no signalling connection; radio nearly off
  kFach,  ///< shared channels only (a few hundred bytes/s)
  kDch,   ///< dedicated channels; full data rate
  kOutOfService,  ///< no coverage: cell search, no data path at all
};

/// Returns a short human-readable state name
/// ("IDLE", "FACH", "DCH", "OUT_OF_SERVICE").
const char* to_string(RrcState state);

/// Timer and signalling parameters of the radio resource control protocol.
struct RrcConfig {
  Seconds t1 = 4.0;   ///< DCH inactivity timer (DCH -> FACH)
  Seconds t2 = 15.0;  ///< FACH inactivity timer (FACH -> IDLE)

  /// IDLE -> DCH: RRC connection setup + radio bearer establishment.
  /// The paper measured ~1.75 s *extra* latency versus resuming from FACH.
  Seconds idle_to_dch_delay = 3.25;
  /// FACH -> DCH: dedicated channel allocation with signalling still up.
  Seconds fach_to_dch_delay = 1.5;
  /// App-requested release (fast dormancy): SCRI + RRC release exchange.
  Seconds release_delay = 2.0;

  /// Mean radio power during IDLE->DCH promotion signalling.
  Watts idle_to_dch_power = 1.55;
  /// Mean radio power during FACH->DCH promotion signalling.
  Watts fach_to_dch_power = 1.0;
  /// Mean radio power during the release exchange.
  Watts release_power = 1.5;

  /// Timer-driven demotions (T1/T2 expiry) are network-initiated and cheap;
  /// they complete instantaneously in this model.

  /// Largest payload the shared FACH channels accept without a DCH
  /// promotion (Section 2.1: "a few hundred bytes/second" on common
  /// channels; bigger transfers must promote).
  Bytes fach_data_threshold = 512;

  // --- radio-link failure / re-establishment (DESIGN.md "Radio failure
  // model").  These only matter once a coverage process drives
  // radio_link_down(); with no outage plan none of them is ever consulted.

  /// N313/T313-style detection window: how long the link must stay bad
  /// before the UE declares radio-link failure (or, in IDLE, simply camps
  /// out of service).  Fades shorter than this are absorbed silently.
  Seconds rlf_detect = 1.0;
  /// One RRC connection re-establishment exchange (cell search already done;
  /// comparable to an IDLE->DCH setup minus the paging round).
  Seconds reestablish_delay = 1.2;
  /// Mean radio power while a re-establishment exchange is in flight —
  /// signalling at full transmit power, like an IDLE->DCH promotion.
  Watts reestablish_power = 1.55;
  /// Backoff before retry k+1 after a failed attempt k:
  /// reestablish_backoff * 2^(k-1), spent camped OUT_OF_SERVICE.
  Seconds reestablish_backoff = 0.5;
  /// Attempts before the UE gives up, releases the RRC context and falls
  /// back to IDLE (the connection must then be rebuilt from scratch).
  int max_reestablish_attempts = 4;

  // --- hard handover (metro layer; DESIGN.md "Metro layer").  Consulted
  // only by start_handover(), which nothing calls in a single-cell run.

  /// One hard-handover exchange: measurement report, handover command,
  /// target-cell radio bearer reconfiguration + L2 re-sync.  Much cheaper
  /// than an IDLE->DCH setup (the context moves, it is not rebuilt) but
  /// not free like a timer demotion.
  Seconds handover_delay = 0.3;
  /// Mean radio power while the handover exchange is in flight —
  /// signalling at full transmit power, like an IDLE->DCH promotion.
  Watts handover_power = 1.55;

  friend bool operator==(const RrcConfig&, const RrcConfig&) = default;
};

/// Whole-phone power levels per state (paper Table 5).
struct RadioPowerModel {
  Watts idle = 0.15;          ///< IDLE (display + system maintenance)
  Watts fach = 0.63;          ///< camped on shared channels
  Watts dch_no_transfer = 1.15;  ///< dedicated channels allocated, no data
  Watts dch_transfer = 1.25;  ///< actively transferring on DCH
  /// Transmitting on the shared FACH channels ("about half of the power in
  /// the DCH state", Section 2.1).
  Watts fach_transfer = 0.70;
  /// Additional draw of a fully busy CPU (Table 5: 0.6 W total at IDLE,
  /// i.e. 0.45 W above the 0.15 W floor).
  Watts cpu_busy_extra = 0.45;
  /// Camped out of service: continuous cell search burns more than the IDLE
  /// maintenance floor but far less than camping on shared channels —
  /// Table-5-consistent interpolation between idle (0.15) and FACH (0.63).
  Watts out_of_service = 0.50;

  friend bool operator==(const RadioPowerModel&,
                         const RadioPowerModel&) = default;
};

/// Link throughput parameters for the simulated T-Mobile UMTS path.
struct LinkConfig {
  /// DCH downlink goodput. Calibrated so a 760 KB bulk transfer completes in
  /// about 8 s once the channel is up (paper Fig 4).
  BytesPerSecond dch_bandwidth = 140.0 * 1024.0;
  /// FACH shared-channel rate ("up to a few hundred bytes per second").
  BytesPerSecond fach_bandwidth = 300.0;
  /// One-way network latency smartphone <-> server (3G RTT ~ 300-500 ms).
  Seconds rtt = 0.20;
  /// Server think time before the first response byte.
  Seconds server_latency = 0.05;
  /// TCP slow start over the high-RTT 3G path: every response larger than
  /// the threshold pays extra round trips before the stream reaches link
  /// rate. delay = rtt * min(cap, log2(1 + size/threshold)).
  Bytes slow_start_threshold = 16 * 1024;
  double slow_start_rounds_cap = 1.0;

  /// Extra request delay from slow start for a response of `size` bytes.
  Seconds slow_start_delay(Bytes size) const;

  friend bool operator==(const LinkConfig&, const LinkConfig&) = default;
};

}  // namespace eab::radio
