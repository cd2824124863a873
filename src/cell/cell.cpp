#include "cell/cell.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "cell/cell_sim.hpp"
#include "core/sweep.hpp"
#include "sim/simulator.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace eab::cell {

const char* to_string(SharePolicy policy) {
  switch (policy) {
    case SharePolicy::kRoundRobin: return "round-robin";
    case SharePolicy::kProportionalFair: return "proportional-fair";
  }
  return "?";
}

CellResult run_cell(const CellConfig& config) {
  validate_cell_config(config);
  sim::Simulator sim;
  sim.set_event_budget(config.sim_event_budget);
  TickCoordinator ticks;
  const bool telemetry = config.telemetry_tick > 0;
  CellSim cell(sim, config, /*cell_index=*/0, telemetry ? &ticks : nullptr);
  std::vector<std::unique_ptr<CellUe>> ues;
  ues.reserve(config.users);
  for (int id = 0; id < config.users; ++id) {
    ues.push_back(cell.make_ue(
        id, derive_seed(config.cell_seed, static_cast<std::uint64_t>(id))));
  }
  if (config.cell_outage_count > 0) cell.schedule_cell_outages();
  for (auto& ue : ues) cell.schedule_first_arrival(*ue);
  Seconds workload_end = 0;
  if (telemetry) {
    cell.start_telemetry();
    // The trailing tick — the one that finds the queue drained — is always
    // the very last event, so the last non-tick event is the last workload
    // event.  Tracking its time makes end_time, every energy window and
    // mean_busy_grants bit-identical to an unsampled run; the only
    // observable delta of sampling stays sim_events itself.
    while (sim.step()) {
      if (!ticks.consume_tick_fired()) workload_end = sim.now();
    }
  } else {
    sim.run();
  }
  const Seconds end = telemetry ? workload_end : sim.now();
  return cell.finalize(end, sim.fired_count());
}

namespace {

// v2 appends the optional telemetry blob after the metrics registry; v3
// adds the radio-failure accounting (cell aggregates + per-UE fields).
constexpr std::uint32_t kCellResultVersion = 3;

void write_energy(BinaryWriter& w, const core::EnergyReport& energy) {
  w.f64(energy.load_j);
  w.f64(energy.with_reading_j);
  w.f64(energy.radio_j);
  w.f64(energy.window_s);
}

core::EnergyReport read_energy(BinaryReader& r) {
  core::EnergyReport energy;
  energy.load_j = r.f64();
  energy.with_reading_j = r.f64();
  energy.radio_j = r.f64();
  energy.window_s = r.f64();
  return energy;
}

}  // namespace

std::string serialize_cell_result(const CellResult& result) {
  for (const UeStats& ue : result.per_ue) {
    if (ue.trace) {
      throw std::invalid_argument(
          "serialize_cell_result: traced results cannot cross the process "
          "boundary; run supervised sweeps with tracing off");
    }
  }
  std::string out;
  BinaryWriter w(out);
  w.u32(kCellResultVersion);
  w.i32(result.users);
  w.i32(result.channels);
  w.u64(result.offered);
  w.u64(result.dropped);
  w.u64(result.completed);
  w.u64(result.aborted);
  w.u64(result.grant_overcommits);
  w.u64(result.radio_outages);
  w.u64(result.rlf);
  w.u64(result.reestablish_ok);
  w.u64(result.reestablish_fail);
  w.u64(result.cell_outages);
  w.f64(result.mean_busy_grants);
  w.i32(result.peak_busy_grants);
  w.f64(result.mean_grant_hold);
  w.u64(result.leaked_flows);
  w.f64(result.end_time);
  w.u64(result.sim_events);
  w.u64(result.per_ue.size());
  for (const UeStats& ue : result.per_ue) {
    w.i32(ue.offered);
    w.i32(ue.admitted);
    w.i32(ue.dropped);
    w.i32(ue.completed);
    w.i32(ue.aborted);
    w.f64(ue.total_load_time);
    w.f64(ue.total_service_time);
    w.i32(ue.radio_outages);
    w.i32(ue.rlf);
    w.i32(ue.reestablish_ok);
    w.i32(ue.reestablish_fail);
    w.f64(ue.out_of_service_time);
    write_energy(w, ue.energy);
  }
  w.str(result.metrics.to_bytes());
  if (result.telemetry) {
    w.u8(1);
    w.str(result.telemetry->to_bytes());
  } else {
    w.u8(0);
  }
  return out;
}

CellResult deserialize_cell_result(std::string_view bytes) {
  BinaryReader r(bytes);
  if (r.u32() != kCellResultVersion) {
    throw std::runtime_error(
        "deserialize_cell_result: unknown record version");
  }
  CellResult result;
  result.users = r.i32();
  result.channels = r.i32();
  result.offered = r.u64();
  result.dropped = r.u64();
  result.completed = r.u64();
  result.aborted = r.u64();
  result.grant_overcommits = r.u64();
  result.radio_outages = r.u64();
  result.rlf = r.u64();
  result.reestablish_ok = r.u64();
  result.reestablish_fail = r.u64();
  result.cell_outages = r.u64();
  result.mean_busy_grants = r.f64();
  result.peak_busy_grants = r.i32();
  result.mean_grant_hold = r.f64();
  result.leaked_flows = r.u64();
  result.end_time = r.f64();
  result.sim_events = r.u64();
  const std::uint64_t ue_count = r.u64();
  result.per_ue.reserve(ue_count);
  for (std::uint64_t i = 0; i < ue_count; ++i) {
    UeStats ue;
    ue.offered = r.i32();
    ue.admitted = r.i32();
    ue.dropped = r.i32();
    ue.completed = r.i32();
    ue.aborted = r.i32();
    ue.total_load_time = r.f64();
    ue.total_service_time = r.f64();
    ue.radio_outages = r.i32();
    ue.rlf = r.i32();
    ue.reestablish_ok = r.i32();
    ue.reestablish_fail = r.i32();
    ue.out_of_service_time = r.f64();
    ue.energy = read_energy(r);
    result.per_ue.push_back(std::move(ue));
  }
  result.metrics = obs::MetricsRegistry::from_bytes(r.str());
  if (r.u8() != 0) {
    result.telemetry =
        std::make_shared<obs::Telemetry>(obs::Telemetry::from_bytes(r.str()));
  }
  r.expect_done();
  return result;
}

core::SupervisorReport run_cell_sweep(
    const CellConfig& base, const std::vector<int>& users_axis,
    const core::SweepExecution& exec,
    const std::function<void(std::size_t index, const CellResult& result)>&
        consume) {
  validate_cell_config(base);
  if (exec.tier() == core::SweepExecution::Tier::kSupervised &&
      base.per_ue.stack.trace) {
    throw std::invalid_argument(
        "run_cell_sweep: tracing cannot cross the process boundary; run "
        "supervised sweeps with tracing off");
  }
  core::SweepDriver<CellResult> driver;
  driver
      .shard([&base, &users_axis](std::size_t i) {
        CellConfig config = base;
        config.users = users_axis[i];
        return run_cell(config);
      })
      .codec(serialize_cell_result,
             [](std::string_view payload) {
               return deserialize_cell_result(payload);
             });
  if (consume) {
    driver.consume([&consume](std::size_t i, CellResult&& result) {
      consume(i, result);
    });
  }
  return driver.run(users_axis.size(), exec);
}

double users_at_drop_target(const std::vector<int>& users_axis,
                            const std::vector<double>& drops, double target) {
  if (users_axis.size() != drops.size() || users_axis.empty()) {
    throw std::invalid_argument(
        "users_at_drop_target: axis/drops size mismatch or empty");
  }
  double previous_users = users_axis.front();
  double previous_drop = drops.front();
  if (previous_drop >= target) return previous_users;
  for (std::size_t i = 1; i < users_axis.size(); ++i) {
    const double users = users_axis[i];
    const double drop = drops[i];
    if (drop >= target) {
      const double slope =
          (drop - previous_drop) / std::max(1e-9, users - previous_users);
      return previous_users + (target - previous_drop) / std::max(1e-9, slope);
    }
    previous_users = users;
    previous_drop = drop;
  }
  return users_axis.back();
}

}  // namespace eab::cell
