#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "fmore/mec/population_store.hpp"
#include "fmore/ml/partition.hpp"
#include "fmore/stats/distributions.hpp"

namespace fmore::mec {

/// The N edge nodes of one MEC deployment — a thin owner of the
/// structure-of-arrays `PopulationStore` that holds the state. Data
/// resources come from the non-IID shards (the node's data size / label
/// diversity are whatever its shard holds); bandwidth/CPU and the private
/// theta are drawn by the store. Readers take the store's columns, or one
/// node's `resources(i)` / `caps(i)`, through `store()`.
class MecPopulation {
public:
    MecPopulation(const std::vector<ml::ClientShard>& shards, std::size_t num_classes,
                  const stats::Distribution& theta_dist, const PopulationSpec& spec,
                  stats::Rng& rng)
        : store_(shards, num_classes, theta_dist, spec, rng) {}

    /// Adopt an already-built store (e.g. a shard-free synthetic
    /// mega-population for the scale benches).
    explicit MecPopulation(PopulationStore store) : store_(std::move(store)) {}

    [[nodiscard]] std::size_t size() const { return store_.size(); }

    /// One round of resource/theta drift across all nodes (see
    /// `PopulationStore::evolve` for the determinism model).
    void evolve(stats::Rng& rng) { store_.evolve(rng); }

    /// Drift under a round salt drawn elsewhere — how a sharded market
    /// coordinator keeps this population in lockstep with its shards (one
    /// generator draw for the whole market, identical columns everywhere).
    void evolve_with_salt(std::uint64_t salt) { store_.evolve_with_salt(salt); }

    [[nodiscard]] double theta_lo() const { return store_.theta_lo(); }
    [[nodiscard]] double theta_hi() const { return store_.theta_hi(); }

    /// Read-only on purpose: the state changes only through `evolve` and
    /// `restore`.
    [[nodiscard]] const PopulationStore& store() const { return store_; }

    /// Durable-run checkpoint support: copy out / restore the full store
    /// state.
    [[nodiscard]] PopulationSnapshot snapshot() const { return store_.snapshot(); }
    void restore(const PopulationSnapshot& snap) { store_.restore(snap); }

private:
    PopulationStore store_;
};

} // namespace fmore::mec
