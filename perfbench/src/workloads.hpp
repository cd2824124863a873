// The three workloads (see perfbench/README.md for why each exists).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "harness.hpp"

namespace perfbench {

/// Cold single-UE loads through core::BatchRunner (one thread).
std::unique_ptr<Workload> make_page_loads(std::uint64_t seed);

/// Browsing sessions through core::run_session under Baseline, Accurate-9
/// and Predict-9.
std::unique_ptr<Workload> make_reading_sessions(std::uint64_t seed);

/// 2x2 metro sweeps with mobility and faults on the supervised tier (one
/// worker process); `scratch_dir` holds the checkpoint journals.
std::unique_ptr<Workload> make_metro_mobility(std::uint64_t seed,
                                              const std::string& scratch_dir);

}  // namespace perfbench
