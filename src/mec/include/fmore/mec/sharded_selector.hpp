#pragma once

/// @file sharded_selector.hpp
/// The sharded FMore marketplace: the auction round of `AuctionSelector`
/// partitioned over S contiguous node-range shards, proven winner- and
/// payment-bit-identical to the monolithic market (see ARCHITECTURE.md
/// "Sharding the market" and tests/auction/shard_equivalence_test).
///
/// Shards are contiguous row ranges of ONE population's store: even ranges
/// (`num_shards`) or explicit cut points (uneven splits). Each round the
/// coordinator
///  1. draws ONE drift salt and evolves the population with it — what
///     every shard evolving its own rows from the per-node (salt, global
///     id) streams would compute, bit for bit;
///  2. has every live shard run `collect_head_rows` over ITS rows — the
///     forked shard worker's one-pass quote into a bounded head of at most
///     `ranking_cutoff` rows (not N bids), with no bid frame between — the
///     shards spread over the shared pool, each pool slot with its own
///     scratch;
///  3. merges the S heads under the market's strict total order
///     (score desc, tie key asc, node asc) and truncates at the monolithic
///     cutoff — the containment argument in shard_merge.hpp makes the
///     merged head equal the monolithic ranking head exactly;
///  4. runs selection and pricing on the merged head with the SAME
///     mechanism and the SAME generator draws the monolithic round uses;
///     a winner's promised data volume is its row of the merged head.
///
/// Tie-break keys follow `MechanismSpec::tie_break`: in `shuffle` mode the
/// coordinator replays the monolithic round's global Fisher-Yates
/// permutation (the active set is derived from node ranges + blacklist,
/// which the coordinator owns — no shard data needed); in `salted` mode
/// one 8-byte salt replaces the permutation entirely, which is what the
/// multi-process `ProcessShardAggregator` ships over its pipes.
///
/// Mechanisms that are not the exact built-in score-auction engine take
/// the GATHER lane instead: every live shard collects its rows into one
/// global bid frame and the mechanism's own `run_frame` runs on it — exact
/// semantics for every registered mechanism, including wholesale `run`
/// overrides.
///
/// Degradation: with a `shard_timeout_s` deadline and a latency model
/// installed (`set_virtual_latency`, a deterministic virtual clock — no
/// real sleeping), shards that miss the deadline contribute no bids that
/// round; the auction proceeds over the responsive shards and the drop is
/// surfaced in `SelectionRecord::dropped_shards` / `RoundMetrics`.
/// Degraded rounds are NOT equivalence-bound (the monolithic market has
/// no notion of missing bids); un-degraded rounds are.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fmore/auction/bid_frame.hpp"
#include "fmore/auction/shard_merge.hpp"
#include "fmore/auction/winner_determination.hpp"
#include "fmore/fl/selection.hpp"
#include "fmore/mec/auction_selector.hpp"
#include "fmore/mec/blacklist.hpp"
#include "fmore/mec/population.hpp"
#include "fmore/util/fault_injector.hpp"

namespace fmore::mec {

class ShardedAuctionSelector final : public fl::ClientSelector {
public:
    /// `num_shards` contiguous even ranges of `population`'s store
    /// (`PopulationStore::even_boundaries`), WITHOUT copying it. The
    /// population remains the single source of truth — drift is applied to
    /// it once per round, so engine components reading it (the wall-clock
    /// model, inspection APIs) see exactly the monolithic state.
    ShardedAuctionSelector(MecPopulation& population,
                           const auction::ScoringRule& scoring,
                           const auction::EquilibriumStrategy& strategy,
                           auction::WinnerDeterminationConfig wd_config,
                           QualityLayout layout, std::size_t data_dimension,
                           std::size_t num_shards,
                           auction::PaymentMethod payment_method
                           = auction::PaymentMethod::integral);

    /// `cuts.size() + 1` shards cut at `cuts`: local row indices of the
    /// population's store, strictly increasing, in (0, size()), so no shard
    /// is empty. No cut is one shard.
    /// @throws std::invalid_argument on an unsorted, duplicate or
    ///         out-of-range cut
    ShardedAuctionSelector(MecPopulation& population,
                           const auction::ScoringRule& scoring,
                           const auction::EquilibriumStrategy& strategy,
                           auction::WinnerDeterminationConfig wd_config,
                           QualityLayout layout, std::size_t data_dimension,
                           const std::vector<std::size_t>& cuts,
                           auction::PaymentMethod payment_method
                           = auction::PaymentMethod::integral);

    [[nodiscard]] fl::SelectionRecord select(std::size_t round, std::size_t k,
                                             stats::Rng& rng) override;
    /// Same display names as the monolithic selector on purpose — sharding
    /// is an execution strategy, not a different mechanism.
    [[nodiscard]] std::string name() const override {
        return wd_config_.psi < 1.0 ? "psi-FMore" : "FMore";
    }
    [[nodiscard]] bool contracts_data_volume() const override {
        return data_dimension_ != npos;
    }

    /// One auction-only round (drift, per-shard heads, merge, select,
    /// price) over the reused buffers — the entry `bench/scale_round`
    /// times. The returned outcome is owned by the selector and
    /// overwritten by the next round.
    [[nodiscard]] const auction::AuctionOutcome& run_auction_round(std::size_t round,
                                                                   std::size_t k,
                                                                   stats::Rng& rng);

    [[nodiscard]] std::size_t num_shards() const { return starts_.size() - 1; }
    [[nodiscard]] std::size_t population_size() const { return starts_.back(); }

    void set_compliance(const ComplianceSpec& spec) { compliance_ = spec; }
    [[nodiscard]] const Blacklist& blacklist() const { return blacklist_; }

    /// Bid deadline per shard, in (virtual) seconds; 0 disables dropping.
    void set_shard_timeout(double seconds);
    /// Deterministic virtual clock for fault injection: `latency(shard,
    /// round)` is how long that shard "took" that round. Strictly later
    /// than `shard_timeout_s` means the shard's bids miss the round. No
    /// wall time is involved, so degraded rounds replay bit-identically.
    void set_virtual_latency(std::function<double(std::size_t, std::size_t)> latency) {
        latency_ = std::move(latency);
    }
    /// Install a deterministic fault plan (`auction.fault_plan`) as the
    /// virtual clock: crashes never answer, stalls and delays answer after
    /// their duration, wire-only faults (truncate/bit-flip) have no
    /// in-process analogue and answer at `base_latency_s`. Same plan, same
    /// rounds dropped, every replay.
    void set_fault_injector(const util::FaultInjector& faults,
                            double base_latency_s = 0.0) {
        set_virtual_latency(faults.latency_model(base_latency_s));
    }
    /// Fail-fast quorum (`auction.shard_quorum`): a round that drops below
    /// `quorum` live shards throws instead of silently shrinking the
    /// market; 0 disables.
    void set_min_live_shards(std::size_t quorum) { min_live_shards_ = quorum; }
    /// Shards dropped by the most recent round, ascending.
    [[nodiscard]] const std::vector<std::size_t>& last_dropped_shards() const {
        return last_dropped_;
    }

    /// Durable-run hooks: like the monolithic selector, the only
    /// cross-round state here is the blacklist — the drifting columns live
    /// in the trial-owned population.
    void save_checkpoint(fl::SelectorCheckpoint& ckpt) const override {
        for (std::size_t node : blacklist_.banned_ids())
            ckpt.banned_nodes.push_back(node);
    }
    /// @throws std::invalid_argument on a banned id outside the population
    void restore_checkpoint(const fl::SelectorCheckpoint& ckpt) override {
        restore_bans(blacklist_, ckpt.banned_nodes, starts_.back());
    }

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

private:
    /// Per pool slot: the head pass's column pointers and bounded head.
    struct HeadScratch {
        std::vector<const double*> columns;
        auction::StreamingHeadMerge head;
    };

    void refresh_dropped(std::size_t round);
    const auction::Mechanism* mechanism_for(std::size_t k);
    void run_fused_sharded(const auction::ScoreAuctionMechanism& engine, stats::Rng& rng);
    void run_gathered(const auction::Mechanism& mechanism, stats::Rng& rng);
    [[nodiscard]] double bid_quality(auction::NodeId node, std::size_t dim) const;

    MecPopulation& population_;
    std::vector<std::size_t> starts_;       ///< S+1 global range bounds

    const auction::ScoringRule& scoring_;
    const auction::EquilibriumStrategy& strategy_;
    auction::WinnerDeterminationConfig wd_config_;
    QualityLayout layout_;
    std::size_t data_dimension_;
    auction::PaymentMethod payment_method_;
    ComplianceSpec compliance_;
    Blacklist blacklist_;
    bool strategy_scores_broadcast_rule_ = false;
    bool gather_lane_ = false;  ///< which lane the last round took

    double shard_timeout_s_ = 0.0;
    std::size_t min_live_shards_ = 0;
    std::function<double(std::size_t, std::size_t)> latency_;
    std::vector<std::size_t> last_dropped_;
    std::vector<std::uint8_t> dropped_flag_;

    // Per-round buffers, reused.
    std::vector<auction::ShardHead> heads_;      ///< one per shard
    std::vector<HeadScratch> head_scratch_;      ///< one per pool slot
    auction::StreamingHeadMerge merge_;          ///< the heads' merge
    auction::BidFrame gather_frame_;             ///< gather lane
    std::vector<const double*> columns_;         ///< gather lane
    auction::RankScratch scratch_;
    auction::AuctionOutcome outcome_;

    std::shared_ptr<const auction::Mechanism> mechanism_;
    std::size_t mechanism_k_ = npos;
};

} // namespace fmore::mec
