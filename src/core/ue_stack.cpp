#include "core/ue_stack.hpp"

namespace eab::core {

UeStack::UeStack(sim::Simulator& sim, const StackConfig& config,
                 obs::TraceRecorder* trace)
    : UeStack(sim, config, UePlans{config.fault_plan, config.outage}, trace) {}

UeStack::UeStack(sim::Simulator& sim, const StackConfig& config,
                 const UePlans& plans, obs::TraceRecorder* trace)
    : rrc(sim, config.rrc, config.power),
      link(sim, config.link.dch_bandwidth),
      cpu(sim, config.power.cpu_busy_extra),
      ril(sim, rrc),
      sim_(sim),
      config_(config),
      trace_(trace) {
  validate_fault_wiring(config);
  if (plans.faults.enabled()) faults.emplace(sim, link, plans.faults);
  if (plans.outage.enabled() || plans.coverage_driven) {
    outage.emplace(sim, link, rrc, plans.outage, plans.ue_id);
    // Fetches still unsettled at the failure belong to the newest client;
    // every earlier one has finished its load.
    rrc.set_on_rlf([this] {
      if (client_ != nullptr) client_->on_radio_lost();
    });
  }
  if (config.use_browser_cache) {
    cache.emplace(config.browser_cache_bytes);
    const ChaosDirectives& chaos = config.chaos;
    for (int i = 0; i < chaos.cache_storm_count; ++i) {
      sim.schedule_at(chaos.cache_storm_start + i * chaos.cache_storm_period,
                      [this] { cache->clear(); });
    }
  }
  if (config.chaos.ril_socket_failures > 0) {
    ril.fail_next(config.chaos.ril_socket_failures);
  }
  if (trace_ != nullptr) {
    rrc.set_trace(trace_);
    link.set_trace(trace_);
    ril.set_trace(trace_);
    if (faults) faults->set_trace(trace_);
    if (outage) outage->set_trace(trace_);
  }
}

std::unique_ptr<net::HttpClient> UeStack::make_client(
    const net::WebServer& server) {
  auto client = std::make_unique<net::HttpClient>(
      sim_, server, link, rrc, config_.link, config_.max_parallel_connections);
  client->set_retry_policy(config_.retry);
  if (faults) client->set_fault_injector(&*faults);
  if (cache) client->set_cache(&*cache);
  if (trace_ != nullptr) client->set_trace(trace_);
  client_ = client.get();
  return client;
}

std::unique_ptr<browser::PageLoad> UeStack::make_load(
    net::HttpClient& client, const browser::PipelineConfig& pipeline,
    std::uint64_t seed, bool fast_dormancy) {
  auto load =
      std::make_unique<browser::PageLoad>(sim_, client, cpu, pipeline, seed);
  if (fast_dormancy) {
    load->set_on_transmission_complete([this] { ril.request_idle(); });
  }
  if (trace_ != nullptr) load->set_trace(trace_);
  return load;
}

}  // namespace eab::core
