#pragma once

/// @file population_store.hpp
/// Structure-of-arrays backing store of the edge-node population — the
/// million-node representation. Each resource lives in its own contiguous
/// column (plus a caps column), so the per-round hot loops (resource drift,
/// bid collection, wall-clock queries) stream cache lines instead of
/// hopping across an array of structs, and never allocate.
///
/// Determinism model: `evolve` draws ONE salt from the caller's generator
/// and then gives every node its own counter-derived splitmix64 stream
/// seeded from (salt, GLOBAL node id). A node's draws are a pure function
/// of that pair, so any partition of the nodes over `util::ThreadPool`
/// workers — any `FMORE_THREADS` / `FMORE_ROUND_THREADS` value, including
/// the serial reference — replays bit-identical drift, and the caller's
/// generator advances by exactly one step per round regardless of N.
///
/// The same property is what makes the store SHARDABLE: `split` cuts the
/// columns into S contiguous-range shard stores, each remembering its
/// `node_offset()` so local row i keeps the global stream (salt,
/// offset + i). Shards handed the same round salt (`evolve_with_salt`)
/// therefore drift bit-identically to the unsplit store — in any process,
/// on any machine — which is the partitioning invariant the sharded
/// auction market is built on (see ARCHITECTURE.md "Sharding the market").

#include <cstdint>
#include <vector>

#include "fmore/mec/edge_node.hpp"
#include "fmore/ml/partition.hpp"
#include "fmore/stats/distributions.hpp"
#include "fmore/stats/rng.hpp"
#include "fmore/util/pages.hpp"

namespace fmore::mec {

/// Ranges used to initialize the non-data resources of a population.
struct PopulationSpec {
    double bandwidth_lo = 10.0;    ///< Mbps
    double bandwidth_hi = 1000.0;  ///< paper's testbed tops at 1 Gbps
    double cpu_lo = 1.0;           ///< cores usable for training
    double cpu_hi = 8.0;           ///< the testbed's i7
    ResourceDynamics dynamics{};
};

/// Synthetic data resources for populations built without real shards
/// (mega-scale auction-only benches): per-node sample counts and label
/// coverage drawn uniformly from these ranges instead of from a
/// materialized non-IID partition.
struct SyntheticDataSpec {
    double data_lo = 20.0;
    double data_hi = 150.0;
    double category_lo = 0.1;
    double category_hi = 1.0;
};

/// One auctionable resource column of the store (the fields of
/// `ResourceState`, in its declaration order).
enum class ResourceDim : std::uint8_t {
    data_size,
    category_proportion,
    bandwidth,
    cpu,
};

/// Full mutable state of a PopulationStore, lifted out for the durable-run
/// checkpoints: the nine columns in declaration order, the global offset,
/// and the round-salt history (the same tape the shard supervisor replays
/// to re-sync a respawned worker). `restore` into a store built from the
/// same spec and seed reproduces it bit for bit.
struct PopulationSnapshot {
    std::size_t node_offset = 0;
    std::vector<std::uint64_t> salt_history;
    /// theta, data_size, category, bandwidth, cpu, data_cap, category_cap,
    /// bandwidth_cap, cpu_cap — in that fixed order.
    std::vector<std::vector<double>> columns;
};

class PopulationStore {
public:
    /// Shard-backed population (the experiment engines). Draw order per
    /// node — bandwidth cap, cpu cap, three initial-state factors, theta —
    /// matches the historical `MecPopulation` constructor, so populations
    /// are reproducible across the AoS->SoA change.
    PopulationStore(const std::vector<ml::ClientShard>& shards, std::size_t num_classes,
                    const stats::Distribution& theta_dist, const PopulationSpec& spec,
                    stats::Rng& rng);

    /// Shard-free synthetic population of `num_nodes` nodes — what lets
    /// bench/scale_round stand up a million bidders without synthesizing a
    /// million-sample dataset first.
    PopulationStore(std::size_t num_nodes, const SyntheticDataSpec& data,
                    const stats::Distribution& theta_dist, const PopulationSpec& spec,
                    stats::Rng& rng);

    [[nodiscard]] std::size_t size() const { return theta_.size(); }

    /// Global id of local row 0 (0 for an unsplit store). Shard stores
    /// produced by `slice` or `split` keep drawing from the (salt, global
    /// id) streams, so `node_offset() + i` is row i's identity in the whole
    /// market.
    [[nodiscard]] std::size_t node_offset() const { return node_offset_; }

    // Hot-path scalar reads (current state).
    [[nodiscard]] double theta(std::size_t i) const { return theta_[i]; }
    [[nodiscard]] double data_size(std::size_t i) const { return data_size_[i]; }
    [[nodiscard]] double category_proportion(std::size_t i) const {
        return category_[i];
    }
    [[nodiscard]] double bandwidth_mbps(std::size_t i) const { return bandwidth_[i]; }
    [[nodiscard]] double cpu_cores(std::size_t i) const { return cpu_[i]; }

    /// Current-state column for one resource dimension.
    [[nodiscard]] const std::vector<double>& column(ResourceDim dim) const;
    /// The private cost types, one per row.
    [[nodiscard]] const std::vector<double>& thetas() const { return theta_; }

    // AoS views (cold paths: tests, examples, the MecPopulation mirror).
    [[nodiscard]] ResourceState resources(std::size_t i) const;
    [[nodiscard]] ResourceState caps(std::size_t i) const;

    [[nodiscard]] double theta_lo() const { return theta_lo_; }
    [[nodiscard]] double theta_hi() const { return theta_hi_; }
    [[nodiscard]] const ResourceDynamics& dynamics() const { return dynamics_; }

    /// One round of resource/theta drift across all nodes as a branch-free
    /// row kernel (ARCHITECTURE.md, "Row kernels"), chunk-parallel over
    /// idle `util::ThreadPool` workers. Consumes exactly one draw from
    /// `rng` (the round salt); results are bit-identical for any worker
    /// count, including `evolve_serial`.
    void evolve(stats::Rng& rng);

    /// The per-node reference of the same drift: one `evolve_node` call
    /// per row, each walking its own stream, on the calling thread. Tests
    /// pin `evolve`'s row kernel against it bit for bit, and
    /// bench/micro_kernels times the kernel against it.
    void evolve_serial(stats::Rng& rng);

    /// Shard entry point of the same drift: apply a round salt the
    /// COORDINATOR drew (one draw for the whole market, not one per shard).
    /// Because per-node streams are keyed by global id, S shards given the
    /// same salt reproduce the unsplit store's `evolve` bit-identically.
    void evolve_with_salt(std::uint64_t salt);

    /// Every round salt this store has applied, in order — what the shard
    /// supervisor replays into a respawned worker, and what the durable-run
    /// checkpoint records so a resumed coordinator can prove provenance.
    [[nodiscard]] const std::vector<std::uint64_t>& salt_history() const {
        return salt_history_;
    }

    /// Copy out the full mutable state (columns + offset + salt history).
    [[nodiscard]] PopulationSnapshot snapshot() const;

    /// Restore state captured by `snapshot` from a same-shaped store.
    /// @throws std::invalid_argument on size or offset mismatch — a
    /// checkpoint must never be restored into the wrong population.
    void restore(const PopulationSnapshot& snap);

    /// One contiguous shard: a store of local rows [lo, hi) that copies
    /// their nine column slices, keeps the dynamics and theta bounds, starts
    /// with an empty salt history, and carries
    /// `node_offset() = this->node_offset() + lo`, so shard drift and bids
    /// stay keyed to global node ids.
    /// @throws std::invalid_argument when lo >= hi or hi > size()
    [[nodiscard]] PopulationStore slice(std::size_t lo, std::size_t hi) const;

    /// `slice(lo, hi)` for a forked child that never reads this store
    /// again: it copies the nine columns one at a time, and after each it
    /// returns the whole pages of that column's rows [lo, hi) to the kernel
    /// (`util::release_pages`) before it copies the next. So a child that
    /// inherited this store holds at most one column twice, and none of the
    /// inherited rows once it returns. Only for a forked child: in the
    /// calling process the released rows read as zeros afterwards.
    /// @throws std::invalid_argument when lo >= hi or hi > size()
    [[nodiscard]] PopulationStore slice_and_release(std::size_t lo, std::size_t hi) const;

    /// The bytes of rows [lo, hi) in each of the nine columns, for page
    /// advice on the store's memory (`util::ForkExclusion`).
    /// @throws std::invalid_argument when lo > hi or hi > size()
    [[nodiscard]] std::vector<util::ByteRange> column_bytes(std::size_t lo,
                                                            std::size_t hi) const;

    /// Partition the store into `boundaries.size() + 1` contiguous shards,
    /// each the `slice` between neighbouring cut points: cut points are
    /// local row indices, strictly increasing, in (0, size()).
    /// @throws std::invalid_argument on unsorted/duplicate/out-of-range cuts
    [[nodiscard]] std::vector<PopulationStore>
    split(const std::vector<std::size_t>& boundaries) const;

    /// Even partition into `num_shards` contiguous shards (the first
    /// size() % num_shards shards get one extra node).
    /// @throws std::invalid_argument when num_shards is 0 or > size()
    [[nodiscard]] std::vector<PopulationStore> split_even(std::size_t num_shards) const;

    /// The cut points `split_even` uses (exposed so callers can map a
    /// global node id back to its shard).
    [[nodiscard]] static std::vector<std::size_t>
    even_boundaries(std::size_t size, std::size_t num_shards);

private:
    PopulationStore() = default;  ///< used by slice to assemble a shard
    /// The one copy behind `slice` and `slice_and_release`.
    PopulationStore slice_columns(std::size_t lo, std::size_t hi, bool release) const;
    void init_resources(std::size_t i, const PopulationSpec& spec, double data_cap,
                        double category, const stats::Distribution& theta_dist,
                        stats::Rng& rng);
    /// Theta-bounds check and salt history, shared by both drift paths.
    void begin_round(std::uint64_t salt);
    void evolve_node(std::size_t i, std::uint64_t salt);

    std::size_t node_offset_ = 0;
    ResourceDynamics dynamics_{};
    double theta_lo_ = 0.0;
    double theta_hi_ = 0.0;
    std::vector<std::uint64_t> salt_history_;  ///< round salts applied, in order
    // Current state, one column per resource.
    std::vector<double> theta_;
    std::vector<double> data_size_;
    std::vector<double> category_;
    std::vector<double> bandwidth_;
    std::vector<double> cpu_;
    // Hard caps (shard size, NIC speed, core count).
    std::vector<double> data_cap_;
    std::vector<double> category_cap_;
    std::vector<double> bandwidth_cap_;
    std::vector<double> cpu_cap_;
};

} // namespace fmore::mec
