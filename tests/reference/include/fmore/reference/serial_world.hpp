#pragma once

/// @file serial_world.hpp
/// The world builds as one serial loop over one generator: the population
/// store's two constructors and the image generator as they drew before
/// `stats::draw_in_chunks` spread them over the pool. The `PooledWorld`
/// suite holds the pooled builds to them bit for bit, engine state included,
/// and `bench/micro_kernels` times them against the pooled builds.

#include <cstddef>
#include <vector>

#include "fmore/mec/population_store.hpp"
#include "fmore/ml/partition.hpp"
#include "fmore/ml/synthetic.hpp"
#include "fmore/stats/distributions.hpp"
#include "fmore/stats/rng.hpp"

namespace fmore::reference {

/// The shard-backed store's nine columns in snapshot order
/// (`mec::PopulationSnapshot::columns`), drawn node by node.
std::vector<std::vector<double>> serial_store_columns(
    const std::vector<ml::ClientShard>& shards, std::size_t num_classes,
    const stats::Distribution& theta_dist, const mec::PopulationSpec& spec, stats::Rng& rng);

/// The synthetic store's nine columns, drawn node by node.
std::vector<std::vector<double>> serial_store_columns(
    std::size_t num_nodes, const mec::SyntheticDataSpec& data,
    const stats::Distribution& theta_dist, const mec::PopulationSpec& spec, stats::Rng& rng);

/// `ml::make_synthetic_images(spec, train_samples, rng)`, sample by sample.
ml::DatasetSplit serial_synthetic_images(const ml::ImageDatasetSpec& spec,
                                         std::size_t train_samples, stats::Rng& rng);

} // namespace fmore::reference
