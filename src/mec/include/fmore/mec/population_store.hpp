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
/// The same property is what makes the store SHARDABLE: `slice` copies a
/// contiguous row range into a shard store that remembers its
/// `node_offset()`, so local row i keeps the global stream (salt,
/// offset + i). Shards handed the same round salt (`evolve_with_salt`)
/// therefore drift bit-identically to the unsplit store — in any process,
/// on any machine — which is the partitioning invariant the sharded
/// auction markets are built on (see ARCHITECTURE.md "Sharding the
/// market"): a forked worker drifts its slice, and the in-process market
/// drifts the whole store once and reads each shard's row range of it.
///
/// A forked shard worker holds a NARROWED shard (`slice` and
/// `slice_and_release` with a bid layout): theta, the layout's columns and
/// the caps of those that drift, plus, when a drifting column (bandwidth,
/// cpu, data size) is left out, one draw byte per row recording which of
/// the left-out caps are positive. A row takes a drift draw only for a
/// positive cap, so that byte is all drift needs to keep every later draw
/// of the row at its place in the stream: the kept columns replay the full
/// store's drift bit for bit. Reading a column a narrowed store left out
/// throws.

#include <cstdint>
#include <functional>
#include <vector>

#include "fmore/ml/partition.hpp"
#include "fmore/stats/distributions.hpp"
#include "fmore/stats/rng.hpp"
#include "fmore/util/pages.hpp"

namespace fmore::mec {

/// Snapshot of an edge node's multi-dimensional resources — the quantities
/// the paper auctions: "local data, computation capability, bandwidth, CPU
/// cycle, etc." (Section III.A). `data_size` counts locally held training
/// samples; `category_proportion` is the paper's q2, the fraction of label
/// classes present locally.
struct ResourceState {
    double data_size = 0.0;
    double category_proportion = 0.0;
    double bandwidth_mbps = 0.0;
    double cpu_cores = 0.0;
};

/// How a node's resources drift between rounds. The paper's walk-through
/// notes bids change because "the available resources are changed" and "the
/// private cost parameter theta is reestimated and revised" — we model both
/// with bounded random walks.
struct ResourceDynamics {
    /// Per-round relative jitter of bandwidth/cpu (0 = static resources).
    double resource_jitter = 0.10;
    /// Per-round absolute jitter of theta (clamped to the distribution
    /// support by the population).
    double theta_jitter = 0.0;
};

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
    /// node: bandwidth cap, cpu cap, three initial-state factors, theta.
    /// Every recorded tape and golden depends on that order. Built in
    /// chunks on the pool (`stats::draw_in_chunks`): the columns and `rng`
    /// afterwards are bit-identical to drawing node by node on one thread.
    PopulationStore(const std::vector<ml::ClientShard>& shards, std::size_t num_classes,
                    const stats::Distribution& theta_dist, const PopulationSpec& spec,
                    stats::Rng& rng);

    /// Shard-free synthetic population of `num_nodes` nodes — what lets
    /// bench/scale_round stand up a million bidders without synthesizing a
    /// million-sample dataset first. Each node draws its data cap and
    /// category first, then the shard-backed order; built in chunks like it.
    PopulationStore(std::size_t num_nodes, const SyntheticDataSpec& data,
                    const stats::Distribution& theta_dist, const PopulationSpec& spec,
                    stats::Rng& rng);

    [[nodiscard]] std::size_t size() const { return theta_.size(); }

    /// Global id of local row 0 (0 for an unsplit store). Shard stores
    /// produced by `slice` keep drawing from the (salt, global id) streams,
    /// so `node_offset() + i` is row i's identity in the whole market.
    [[nodiscard]] std::size_t node_offset() const { return node_offset_; }

    // Scalar reads of the current state (wall-clock queries, tests). On a
    // narrowed store, every read of a column it left out throws
    // std::logic_error, and so does everything else that reads one:
    // `column`, `resources`, `caps`, `snapshot`, `restore`, `evolve_serial`
    // and a slice that copies it.
    [[nodiscard]] double theta(std::size_t i) const { return theta_[i]; }
    [[nodiscard]] double data_size(std::size_t i) const {
        return held(data_size_, "data_size")[i];
    }
    [[nodiscard]] double category_proportion(std::size_t i) const {
        return held(category_, "category")[i];
    }
    [[nodiscard]] double bandwidth_mbps(std::size_t i) const {
        return held(bandwidth_, "bandwidth")[i];
    }
    [[nodiscard]] double cpu_cores(std::size_t i) const { return held(cpu_, "cpu")[i]; }

    /// Current-state column for one resource dimension.
    [[nodiscard]] const std::vector<double>& column(ResourceDim dim) const;
    /// The private cost types, one per row.
    [[nodiscard]] const std::vector<double>& thetas() const { return theta_; }

    // One node's state as a struct (cold paths: tests, examples, the
    // reference market).
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

    /// One round of `evolve_with_salt`'s drift, applied a range of rows at
    /// a time: what a pass that drifts each block of rows just before it
    /// reads them holds (`collect_head_rows`' drifting overload). Made by
    /// `begin_drift`; valid while its store lives, and not across another
    /// round.
    class RowDrift {
    public:
        /// Drifts rows [lo, hi) as `evolve_with_salt` drifts them, on the
        /// calling thread. A row's drift reads only the row and its (salt,
        /// global id) stream, so drifting every row once, in any ranges and
        /// any order, leaves the store as `evolve_with_salt(salt)` does.
        void operator()(std::size_t lo, std::size_t hi) const;

    private:
        friend class PopulationStore;
        RowDrift(PopulationStore& store, std::uint64_t salt) : store_(&store), salt_(salt) {}
        PopulationStore* store_;
        std::uint64_t salt_;
    };

    /// Starts a round of drift under `salt`: checks the theta bounds and
    /// records the salt, as `evolve_with_salt` does before any row moves,
    /// and returns the drift, which the caller applies to every row once.
    /// @throws std::invalid_argument on bad theta bounds (nothing recorded)
    [[nodiscard]] RowDrift begin_drift(std::uint64_t salt);

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

    /// `slice(lo, hi)` narrowed to what a bid over `layout` reads and what
    /// drift needs to replay it: theta, the layout's columns, the caps of
    /// those that drift, and `draw_bits(lo, hi, layout)` when it leaves a
    /// drifting column out. It drifts through the same row kernel as a full
    /// store, a left-out column only advancing its row's draw count, so the
    /// kept columns stay bit-identical to `slice(lo, hi)`'s under any salts.
    /// @throws std::invalid_argument when lo >= hi or hi > size()
    [[nodiscard]] PopulationStore slice(std::size_t lo, std::size_t hi,
                                        const std::vector<ResourceDim>& layout) const;

    /// `slice(lo, hi, layout)` for a forked child that never reads this
    /// store again and maps none of `bytes_outside(lo, hi, layout)`:
    /// `draw_bits` is `draw_bits(lo, hi, layout)`, taken by the parent
    /// before the fork. It copies the kept columns a few pages at a time,
    /// with no zero-fill, and returns each run of source pages to the kernel
    /// (`util::release_pages`) once copied, so the child never holds a
    /// column twice, nor any inherited row once this returns. Only for a
    /// forked child: in the calling process the released rows read as zeros
    /// afterwards.
    /// @throws std::invalid_argument when lo >= hi, hi > size(), or
    ///         `draw_bits` does not hold what `draw_bits(lo, hi, layout)`
    ///         returns: one byte per row, or none when the layout keeps
    ///         every drifting column
    [[nodiscard]] PopulationStore slice_and_release(std::size_t lo, std::size_t hi,
                                                    const std::vector<ResourceDim>& layout,
                                                    std::vector<std::uint8_t> draw_bits) const;

    /// One byte per row of [lo, hi) recording which of the drifting caps
    /// `slice(lo, hi, layout)` leaves out are positive (bit 0 bandwidth,
    /// bit 1 cpu, bit 2 data size), i.e. which of their drift draws the row
    /// takes; the caps it keeps, it reads itself. Empty when `layout` keeps
    /// every drifting column.
    /// @throws std::invalid_argument when lo >= hi or hi > size()
    [[nodiscard]] std::vector<std::uint8_t> draw_bits(std::size_t lo, std::size_t hi,
                                                      const std::vector<ResourceDim>& layout) const;

    /// The bytes of rows [lo, hi) in each column this store holds (its draw
    /// bytes included), for page advice on the store's memory
    /// (`util::ForkExclusion`).
    /// @throws std::invalid_argument when lo > hi or hi > size()
    [[nodiscard]] std::vector<util::ByteRange> column_bytes(std::size_t lo,
                                                            std::size_t hi) const;

    /// Every byte of the columns that `slice(lo, hi, layout)` does not
    /// copy: each kept column's rows outside [lo, hi) and the whole of each
    /// column it leaves out. What the aggregator keeps out of the fork of
    /// the worker that narrows rows [lo, hi) (`util::ForkExclusion`).
    /// @throws std::invalid_argument when lo >= hi or hi > size()
    [[nodiscard]] std::vector<util::ByteRange>
    bytes_outside(std::size_t lo, std::size_t hi, const std::vector<ResourceDim>& layout) const;

    /// The `num_shards - 1` cut points of an even partition of `size` rows
    /// into contiguous ranges, the first size % num_shards one row longer:
    /// how both sharded markets cut a store by default.
    /// @throws std::invalid_argument when num_shards is 0 or > size
    [[nodiscard]] static std::vector<std::size_t>
    even_boundaries(std::size_t size, std::size_t num_shards);

private:
    PopulationStore() = default;  ///< used by slice to assemble a shard

    /// One of the nine columns; `kColumns` lists them in snapshot order.
    struct Column {
        std::vector<double> PopulationStore::*values;
        const char* name;
    };
    static const Column kColumns[9];

    /// `column`, unless a narrowed slice left it out.
    /// @throws std::logic_error naming the column when it was left out
    const std::vector<double>& held(const std::vector<double>& column,
                                    const char* name) const {
        if (column.size() != theta_.size()) throw_left_out(name);
        return column;
    }
    [[noreturn]] static void throw_left_out(const char* name);
    /// Throws std::invalid_argument unless rows [lo, hi) are a non-empty
    /// range of this store.
    void check_slice(const char* what, std::size_t lo, std::size_t hi) const;
    /// The one copy behind every slice: rows [lo, hi) of each column in
    /// `keep` (bit c for kColumns[c]), each returned to the kernel as it is
    /// copied when `release`.
    PopulationStore slice_columns(std::size_t lo, std::size_t hi, unsigned keep,
                                  std::vector<std::uint8_t> draw_bits, bool release) const;
    /// One node's draws (the per-node code of both constructors, after the
    /// synthetic data draws): five `Rng::uniform`s, then theta.
    void init_resources(std::size_t i, const PopulationSpec& spec, double data_cap,
                        double category, const stats::Distribution& theta_dist,
                        stats::Rng& rng);
    /// Sizes the nine columns to `n` rows and fills them through
    /// `draw_rows(rng, lo, hi)` in chunks on the pool
    /// (`stats::draw_in_chunks`), each row taking `uniforms_per_row` uniforms
    /// and then one theta sample.
    void build_rows(std::size_t n, std::size_t uniforms_per_row,
                    const stats::Distribution& theta_dist, stats::Rng& rng,
                    const std::function<void(stats::Rng&, std::size_t, std::size_t)>& draw_rows);
    /// Theta-bounds check and salt history, shared by every drift path.
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
    /// `draw_bits` of the rows, held only by a narrowed store that leaves a
    /// drifting column out.
    std::vector<std::uint8_t> draw_bits_;
};

} // namespace fmore::mec
