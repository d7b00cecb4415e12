#pragma once

/// @file engine_parts.hpp (internal to fmore_core)
/// The pieces SimulationTrial and RealWorldTrial assemble the same way,
/// each read straight from the ExperimentSpec: spec admission, the
/// coordinator knobs and the market-selector factory. What differs between
/// the two worlds (dataset, partition, scoring, wall clock) stays in each
/// engine.

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "fmore/core/equilibrium_cache.hpp"
#include "fmore/core/experiment.hpp"
#include "fmore/fl/coordinator.hpp"
#include "fmore/fl/policy.hpp"
#include "fmore/mec/population.hpp"

namespace fmore::core::detail {

/// `spec` once it passed `validate_or_throw` and names the engine's world.
/// @throws std::invalid_argument listing every validation problem, or
///         naming the engine to use when `spec.kind` is the other world
const ExperimentSpec& checked_spec(const ExperimentSpec& spec, ExperimentKind engine);

/// The coordinator knobs of `spec` (rounds, K, SGD and evaluation).
fl::CoordinatorConfig coordinator_config(const ExperimentSpec& spec);

/// The auction-backed selector of one run: the monolithic, sharded or
/// streaming market over `population`, priced by the solved equilibrium.
/// `spec.kind` picks the priced columns — (data size, category) with data
/// dimension 0 on the simulator, (cpu, bandwidth, data size) with data
/// dimension 2 on the testbed. `bid_latencies` yields each node's expected
/// bid latency in seconds; it is empty on the simulator, which has no
/// clock, so its latency table stays empty and a latency discount
/// subtracts nothing. Validation restricts streaming to the testbed.
std::unique_ptr<fl::ClientSelector> make_market_selector(
    const ExperimentSpec& spec, mec::MecPopulation& population,
    const SolvedEquilibrium& solved, const fl::PolicyContext& context,
    const std::function<std::vector<double>()>& bid_latencies);

} // namespace fmore::core::detail
