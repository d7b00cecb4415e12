#pragma once

/// @file shard_aggregator.hpp
/// Multi-process shard market: S forked worker processes, each owning one
/// contiguous shard of the population, speaking the checksummed frame
/// protocol of wire_format.hpp with the aggregator. Every round, batch
/// (`run_round`) or streaming (`run_streaming_round`), carries
///  - down: one `request` frame (round, K, drift salt, tie salt, head
///    limit, newly banned global node ids);
///  - up: one `head` frame — the shard's `ShardHead`, at most
///    `ranking_cutoff` rows, i.e. K(+1) rows per shard, NOT N bids.
/// A streaming round is a batch round whose request (`stream_request`)
/// also carries an 8-byte arrival salt, the arrival horizon and the
/// coordinator-resolved close cut (`stream_round.hpp` — arrival times are
/// pure in (salt, global id), so the coordinator resolves the
/// deadline/quorum trigger before any head byte moves); each worker filters
/// its bids against the cut before it builds its head. The close
/// reason/time and the merged outcome are bit-identical to the in-process
/// `StreamingMarket` composition over the same arrivals.
/// Everything else a round needs is position-independent by construction:
/// drift streams are keyed by (salt, global id) and `TieBreak::salted`
/// tie-break keys by (salt, global id), so 24 bytes of salts replace both
/// the O(N) permutation and any shared state.
///
/// The spec must therefore use `TieBreak::salted`, deterministic
/// acceptance (psi == 1, no per-node psi), `full_ranking == false`, and
/// resolve to the exact built-in score-auction engine — the combinations
/// whose coordinator needs only the bounded heads. Everything else belongs
/// in the in-process `ShardedAuctionSelector`.
///
/// Failure semantics (the supervisor), the same for both round kinds:
///  - One deadline per round, `shard_timeout_s` from the moment the
///    requests ship; the heads are read in one poll loop as they land, so
///    a round ends within the deadline however many workers stall.
///  - A corrupt-but-framed reply (payload checksum mismatch — e.g. a
///    bit-flipped or self-described-short frame) is NEVER consumed; the
///    aggregator re-requests it ONCE (`resend`), then evicts.
///  - A shard that misses the deadline, dies (EOF), or desyncs the stream
///    (corrupt header) is evicted — SIGKILLed, pipes closed, reported in
///    `last_dropped_shards()` — and the round completes over the
///    responsive shards' heads.
///  - With `ShardSupervisorConfig::max_respawns > 0` eviction is no longer
///    permanent: at the next round boundary the supervisor re-forks the
///    worker from the pristine shard and re-syncs it with one `sync` frame
///    (the full drift-salt history and ban list). Because drift is keyed
///    by (salt, global id), replaying the salts reproduces the shard state
///    bit-exactly — a rejoined shard's heads are indistinguishable from
///    one that never died.
///  - A round whose live-shard count falls below
///    `ShardSupervisorConfig::min_live_shards` throws instead of silently
///    shrinking the market.
/// Every detection/retry/eviction/respawn is counted in `ShardHealth`
/// (`last_health()` per round, `lifetime_health()` cumulative).
///
/// Fault injection: a deterministic `util::FaultInjector` plan is baked
/// into each worker at fork time; the same plan drives the in-process
/// `ShardedAuctionSelector` virtual clock, so any failure scenario is
/// bit-replayable from a spec seed.

#include <cstdint>
#include <memory>
#include <vector>

#include "fmore/auction/shard_merge.hpp"
#include "fmore/auction/streaming_market.hpp"
#include "fmore/auction/winner_determination.hpp"
#include "fmore/fl/selection.hpp"
#include "fmore/mec/auction_selector.hpp"
#include "fmore/mec/population_store.hpp"
#include "fmore/util/fault_injector.hpp"

namespace fmore::mec {

/// The supervision counters live in fl (where `SelectionRecord` can carry
/// them); this is the market-layer name for the same record.
using ShardHealth = fl::ShardHealth;

/// Supervision policy of the cross-process market.
struct ShardSupervisorConfig {
    /// Respawn budget per shard; 0 keeps eviction permanent. An evicted
    /// worker with budget left is re-forked at the next round boundary; a
    /// shard that exhausts its budget is retired.
    std::size_t max_respawns = 0;
    /// Fail-fast quorum: a round ending with fewer live shards throws
    /// std::runtime_error; 0 disables.
    std::size_t min_live_shards = 0;
    /// Deterministic fault plan baked into every worker at fork time.
    util::FaultInjector faults;
};

class ProcessShardAggregator {
public:
    /// Forks one worker per even shard of `store`. Worker s keeps only
    /// what a bid over `layout` reads and what drift needs to replay it:
    /// theta, the layout's columns and the caps of those that drift, of its
    /// own rows [lo, hi), plus a draw byte per row when the layout leaves a
    /// drifting column out (`PopulationStore::slice(lo, hi, layout)`; 33
    /// bytes a row instead of 72 for data size and category). The
    /// coordinator takes those draw bytes from the caps before the fork,
    /// and while it forks, a `util::ForkExclusion` keeps out of that fork
    /// every whole page of the store the worker does not keep
    /// (`PopulationStore::bytes_outside`), lifting it again before the
    /// constructor returns or throws, so `store` leaves as forkable as it
    /// came in. The child copies its kept columns a few pages at a time and
    /// hands each run of inherited pages back to the kernel as it goes
    /// (`PopulationStore::slice_and_release`), so after start-up no worker
    /// maps the caller's store, and none keeps its pages alive once the
    /// caller frees or rewrites them. The coordinator never holds a shard
    /// copy while it forks; workers never touch the thread pool (bid
    /// collection in a worker is serial). `store` must outlive only the
    /// constructor. With a respawn budget
    /// (`ShardSupervisorConfig::max_respawns > 0`) the aggregator keeps the
    /// pristine shards, narrowed the same way, as respawn sources, taken
    /// after the initial forks so no initial worker maps them; a respawned
    /// worker maps only its own split of them. Without a budget it keeps no
    /// rows. A worker that throws exits (status 4) instead of unwinding
    /// into the caller, and is evicted like a crashed one.
    /// @pre while the constructor runs, no other thread of the caller
    ///      forks a child that reads `store`: such a child would not map
    ///      the rows hidden from the worker being forked.
    /// @throws std::invalid_argument when the spec is not wire-friendly
    ///         (see file comment), `check_bid_layout` rejects the layout,
    ///         strategy and rule, num_shards is 0 or exceeds the store, or
    ///         the supervisor config is out of range
    /// @throws std::runtime_error on pipe/fork failure
    ProcessShardAggregator(const PopulationStore& store,
                           const auction::ScoringRule& scoring,
                           const auction::EquilibriumStrategy& strategy,
                           auction::WinnerDeterminationConfig wd_config,
                           QualityLayout layout, std::size_t num_shards,
                           double shard_timeout_s,
                           ShardSupervisorConfig supervisor = {});
    ~ProcessShardAggregator();
    ProcessShardAggregator(const ProcessShardAggregator&) = delete;
    ProcessShardAggregator& operator=(const ProcessShardAggregator&) = delete;

    /// One market round: respawn evicted workers with budget left, request
    /// heads from every live worker, evict the ones that miss the round's
    /// deadline or fail verification twice, merge the rest, select and
    /// price.
    /// Consumes the same generator draws as the monolithic salted round
    /// (one drift salt when round > 1, one tie salt); the returned outcome
    /// is owned by the aggregator and overwritten next round. Rounds must
    /// be sequential from 1 (the salt history a respawn replays assumes
    /// it).
    /// @throws std::runtime_error when live shards fall below the quorum
    [[nodiscard]] const auction::AuctionOutcome& run_round(std::size_t round,
                                                           std::size_t k,
                                                           stats::Rng& rng);

    /// Close policy of one cross-process streaming round.
    struct StreamRoundPolicy {
        /// Virtual-clock bid deadline (`timing.round_deadline_s`); an
        /// arrival exactly at the deadline is counted, strictly later
        /// misses. 0 waits for every bid.
        double deadline_s = 0.0;
        /// Close after this many arrivals (`timing.min_updates`); 0
        /// disables.
        std::size_t quorum = 0;
        /// Width of the uniform arrival window bids are drawn over.
        double arrival_horizon_s = 1.0;
    };

    /// One STREAMING market round: resolve the deadline/quorum close over
    /// the salted arrival clock, ship the cut with the requests, and run
    /// the rest exactly as `run_round` does — one head per worker under
    /// one deadline, one bounded retry, eviction and merge. Consumes one
    /// drift salt (round > 1), one tie salt and one arrival salt from
    /// `rng`; the outcome and the close telemetry are bit-identical to the
    /// in-process StreamingMarket composition over the same arrivals.
    /// @throws std::invalid_argument on a non-positive or infinite arrival
    ///         horizon, or a negative or infinite deadline
    /// @throws std::runtime_error when live shards fall below the quorum
    [[nodiscard]] const auction::AuctionOutcome& run_streaming_round(
        std::size_t round, std::size_t k, const StreamRoundPolicy& policy,
        stats::Rng& rng);

    /// Close telemetry of the most recent streaming round.
    [[nodiscard]] auction::CloseReason last_close_reason() const;
    [[nodiscard]] double last_close_time_s() const;
    /// Bids inside the last streaming round's close cut.
    [[nodiscard]] std::size_t last_arrived() const;

    /// Shards that contributed no head to the most recent round
    /// (ascending shard index).
    [[nodiscard]] const std::vector<std::size_t>& last_dropped_shards() const;
    /// Supervision counters of the most recent round.
    [[nodiscard]] const ShardHealth& last_health() const;
    /// Supervision counters accumulated over the aggregator's lifetime
    /// (live_shards is the current count, not a sum).
    [[nodiscard]] const ShardHealth& lifetime_health() const;
    /// Workers evicted over the aggregator's lifetime (respawned workers
    /// still count their evictions).
    [[nodiscard]] std::size_t dead_shards() const;
    /// Workers currently alive.
    [[nodiscard]] std::size_t live_shards() const;
    [[nodiscard]] std::size_t num_shards() const;
    [[nodiscard]] std::size_t population_size() const;
    /// OS pid of worker `shard` (-1 when evicted/retired), for reading
    /// `/proc/<pid>`: the fd-hygiene regression counts open descriptors
    /// there, and benches read each worker's CPU time and peak resident
    /// set.
    [[nodiscard]] int worker_pid(std::size_t shard) const;

    /// Exclude a node from all future rounds; shipped to every worker with
    /// the next request (and to every respawned worker with its sync), and
    /// kept only by the worker whose rows hold it.
    /// @throws std::invalid_argument when `node` is outside the population
    void ban(auction::NodeId node);

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace fmore::mec
