// One phone's browser stack, wired in one place for a single load
// (Scenario::run_single), a reading session (run_session) and every UE of a
// cell or metro (cell::CellUe).  DESIGN.md §9a says what each caller keeps.
//
// The constructor validates the fault wiring, builds each optional layer
// only when its knob is on (a disabled knob leaves the event stream
// untouched), and schedules fade windows, then outage windows, then cache
// storms.  It arms chaos.ril_socket_failures and attaches the caller's
// trace recorder to every layer.  chaos.abort_at and force_idle_at_tx are
// left to the caller (see make_load).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "browser/cpu.hpp"
#include "browser/pipeline.hpp"
#include "core/experiment.hpp"
#include "core/ril.hpp"
#include "net/cache.hpp"
#include "net/fault.hpp"
#include "net/http_client.hpp"
#include "net/outage.hpp"
#include "net/shared_link.hpp"
#include "net/web_server.hpp"
#include "obs/trace.hpp"
#include "radio/rrc.hpp"
#include "sim/simulator.hpp"

namespace eab::core {

/// The injector inputs of one UE.  A lone phone takes them from its
/// StackConfig; a cell reseeds both plans per UE and names the UE.
struct UePlans {
  net::FaultPlan faults;
  radio::OutagePlan outage;
  std::uint64_t ue_id = 0;
  /// Build the OutageInjector even for a disabled `outage` plan.  It then
  /// schedules no windows, and the caller drives coverage through it (a
  /// cell's whole-cell outages, a test's hand-placed holes).
  bool coverage_driven = false;
};

class UeStack {
 public:
  /// The plans come from `config` itself, for UE 0.  `config` and `trace`
  /// (nullptr = untraced) must outlive the stack.
  UeStack(sim::Simulator& sim, const StackConfig& config,
          obs::TraceRecorder* trace = nullptr);
  UeStack(sim::Simulator& sim, const StackConfig& config,
          const UePlans& plans, obs::TraceRecorder* trace);

  UeStack(const UeStack&) = delete;
  UeStack& operator=(const UeStack&) = delete;

  /// A client on this stack with the retry policy, fault injector, cache
  /// and trace attached.  It is the target of radio-link failures until the
  /// next make_client(), so the caller keeps it alive while an event may
  /// still fire before then.
  std::unique_ptr<net::HttpClient> make_client(const net::WebServer& server);

  /// A load over `client` with the trace attached.  `fast_dormancy`
  /// requests IDLE through the RIL chain at transmission-complete.
  std::unique_ptr<browser::PageLoad> make_load(
      net::HttpClient& client, const browser::PipelineConfig& pipeline,
      std::uint64_t seed, bool fast_dormancy = false);

  radio::RrcMachine rrc;
  net::SharedLink link;
  browser::CpuScheduler cpu;
  RilStateSwitcher ril;
  std::optional<net::FaultInjector> faults;
  std::optional<net::OutageInjector> outage;
  std::optional<net::ResourceCache> cache;

 private:
  sim::Simulator& sim_;
  const StackConfig& config_;
  obs::TraceRecorder* const trace_;
  net::HttpClient* client_ = nullptr;  ///< radio-link failure target
};

}  // namespace eab::core
