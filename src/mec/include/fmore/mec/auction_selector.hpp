#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fmore/auction/bid_frame.hpp"
#include "fmore/auction/equilibrium.hpp"
#include "fmore/auction/shard_merge.hpp"
#include "fmore/auction/winner_determination.hpp"
#include "fmore/fl/run_state.hpp"
#include "fmore/fl/selection.hpp"
#include "fmore/mec/blacklist.hpp"
#include "fmore/mec/population.hpp"

namespace fmore::mec {

namespace wire {
struct StreamExtra;
}

/// Which resources a node's bid declares: quality dimension d is read from
/// the population store's `layout[d]` column, so no per-node vector is ever
/// built. Experiments differ: the simulation prices (data size, category
/// proportion), the testbed (cpu, bandwidth, data size).
using QualityLayout = std::vector<ResourceDim>;

/// Canned layouts for the paper's two setups.
QualityLayout data_category_extractor();
QualityLayout cpu_bandwidth_data_extractor();

/// The agreement `collect_bid_rows` needs between the layout, the strategy
/// and the broadcast rule, checked on its own so a caller can reject a bad
/// combination before any round runs (the cross-process market does,
/// before it forks).
/// @throws std::invalid_argument when the layout is empty or wider than
///         1024 columns, or when its width differs from the strategy's
///         (or, for another broadcast rule, the scoring rule's) dimensions
void check_bid_layout(const QualityLayout& layout,
                      const auction::EquilibriumStrategy& strategy,
                      const auction::ScoringRule& scoring,
                      bool strategy_scores_broadcast_rule);

/// The fused bid-collection pass over store rows [lo, hi): per row, the
/// equilibrium quality clipped to the row's available columns, the sealed
/// ask, and the aggregator score, written into frame rows
/// `frame_base + (i - lo)`. Blacklist lookups use GLOBAL node ids
/// (`store.node_offset() + i`), so the same pass serves the monolithic
/// selector (offset 0, whole store) and every shard of the sharded market.
/// `columns` is caller-owned scratch (column pointers, reused across
/// rounds). Chunk-parallel over idle pool workers when `parallel`; inside
/// a chunk, rows are quoted in blocks through the strategy's row kernels
/// (equilibrium.hpp, "Row kernels"), bit-identical to a per-row
/// quality_into / clamp / quote_span loop. Results are row-pure, hence
/// identical for any worker count. The caller is responsible for
/// `frame.reset` and `frame.set_scored(true)`.
/// @throws std::invalid_argument when `check_bid_layout` rejects the
///         layout, strategy and rule
void collect_bid_rows(const PopulationStore& store, std::size_t lo, std::size_t hi,
                      const QualityLayout& layout,
                      const auction::EquilibriumStrategy& strategy,
                      const auction::ScoringRule& scoring,
                      bool strategy_scores_broadcast_rule,
                      auction::PaymentMethod payment_method, const Blacklist& blacklist,
                      auction::BidFrame& frame, std::size_t frame_base,
                      std::vector<const double*>& columns, bool parallel);

/// A shard's half of a round in one pass over store rows [lo, hi), with no
/// frame: each row is quoted exactly as `collect_bid_rows` quotes it and,
/// unless banned or (when `cut` is set) outside the streaming round's
/// arrival cut, offered straight to `head`, a bounded head of at most
/// `limit` rows under the market order. `out` is the head
/// `collect_shard_head` builds from the frame `collect_bid_rows` fills over
/// the same rows, bit for bit: every row's arithmetic is the same, and the
/// head is the top `limit` of a strict total order, which the order rows
/// are offered in cannot change. Global ids are `store.node_offset() +
/// row`, for the blacklist, the cut and `keys`. A forked worker passes its
/// whole store; the in-process sharded market passes each shard's range of
/// the population's store.
/// A block of rows is priced (markup, ask, score) only when the head does
/// not reject one of its live rows' at-cost bound s - c: with
/// `strategy.ask_covers_cost(payment_method)` no ask undercuts its cost, so
/// no row scores above that bound; without it every block is priced. A row
/// scoring below a full head's worst is dropped before its arrival time
/// and tie key are derived, and only rows the head keeps have their
/// quality copied. `columns` and `head` are caller-owned scratch, reused
/// across calls: a steady call allocates nothing. Serial.
/// @returns the rows of the blocks it priced (all rows but those of
///          all-banned blocks when the head never fills)
/// @throws std::invalid_argument when `check_bid_layout` rejects the
///         layout, strategy and rule, or when [lo, hi) is not a range of
///         the store
std::size_t collect_head_rows(const PopulationStore& store, std::size_t lo, std::size_t hi,
                              const QualityLayout& layout,
                              const auction::EquilibriumStrategy& strategy,
                              const auction::ScoringRule& scoring,
                              bool strategy_scores_broadcast_rule,
                              auction::PaymentMethod payment_method,
                              const Blacklist& blacklist, const wire::StreamExtra* cut,
                              const auction::TieKeys& keys, std::size_t limit,
                              std::vector<const double*>& columns,
                              auction::StreamingHeadMerge& head, auction::ShardHead& out);

/// A forked shard worker's round in one pass: `store.evolve_with_salt(
/// drift_salt)` followed by the call above over the whole store, bit for
/// bit, with each block of rows drifted just before it is quoted. The salt
/// is recorded and the theta bounds checked before any row moves, as
/// `evolve_with_salt` does, and after the layout check; a row's drift reads
/// only the row and its (salt, global id) stream, so no quote sees a row
/// drifted out of turn.
/// @throws std::invalid_argument when `check_bid_layout` rejects the
///         layout, strategy and rule (the store untouched), or on bad theta
///         bounds
std::size_t collect_head_rows(PopulationStore& store, std::uint64_t drift_salt,
                              const QualityLayout& layout,
                              const auction::EquilibriumStrategy& strategy,
                              const auction::ScoringRule& scoring,
                              bool strategy_scores_broadcast_rule,
                              auction::PaymentMethod payment_method,
                              const Blacklist& blacklist, const wire::StreamExtra* cut,
                              const auction::TieKeys& keys, std::size_t limit,
                              std::vector<const double*>& columns,
                              auction::StreamingHeadMerge& head, auction::ShardHead& out);

/// Turn one auction outcome into the fl::SelectionRecord the coordinator
/// consumes: the score board, per-node scores, and the winner list with
/// compliance rolls (defectors banned in `blacklist`, shortfalls reflected
/// in `train_samples`). `promised_quality(node)` resolves a winner's bid
/// data volume; pass a null function when no data dimension is priced.
/// Shared by AuctionSelector and the sharded selectors so every market
/// engine assembles records — and consumes compliance RNG draws — in
/// exactly the same order.
[[nodiscard]] fl::SelectionRecord assemble_selection_record(
    const auction::AuctionOutcome& outcome, std::size_t population_size,
    const std::function<double(auction::NodeId)>& promised_quality,
    const ComplianceSpec& compliance, Blacklist& blacklist, stats::Rng& rng);

/// FMore's bid-ask / bid-collection / winner-determination loop as an
/// fl::ClientSelector (steps 1-3 of Section III.A). Each round:
///  1. the population's resources drift (MEC dynamics);
///  2. every node computes its equilibrium quality q^s(theta), clips it to
///     what it currently has available, and prices the (possibly capped)
///     bid with the equilibrium markup rule b(u) — the shading depends only
///     on the achieved score u, so capped bids stay on the equilibrium
///     path;
///  3. the aggregator scores all sealed bids and picks the top K (with the
///     psi-FMore acceptance rule when psi < 1).
///
/// Winners train on the data volume they bid (`train_samples`), which is
/// how the incentive layer feeds back into learning performance.
///
/// One engine drives a round: bids are written straight into a reused
/// `auction::BidFrame` by parallel chunks reading the population store's
/// columns, ranked by `Mechanism::rank_frame`'s fused score+top-K pass,
/// selected and priced into reused buffers — a steady-state round performs
/// zero allocations in the bid path and never materializes N `Bid`
/// objects. The historical per-bid market (one `Bid` per node, a
/// `WinnerDetermination` rebuilt per round) lives on outside the library
/// as `reference::ClassicAuctionSelector` (tests/reference), the oracle the
/// equivalence tests and the scale bench compare this engine against bit
/// for bit.
///
/// The ranking cost is governed by `wd_config.full_ranking`: true records
/// the complete Fig. 8 score board in each round's SelectionRecord; false
/// uses the O(N log K) fused partial path (winners bit-identical, the
/// recorded board truncated to what selection needed).
class AuctionSelector final : public fl::ClientSelector {
public:
    /// `data_dimension` indexes which quality dimension is the data size
    /// (caps the samples a winner trains on); pass npos when the scoring
    /// rule prices no data dimension.
    /// @throws std::invalid_argument when `check_bid_layout` rejects the
    ///         layout, strategy and rule
    AuctionSelector(MecPopulation& population,
                    const auction::ScoringRule& scoring,
                    const auction::EquilibriumStrategy& strategy,
                    auction::WinnerDeterminationConfig wd_config,
                    QualityLayout layout, std::size_t data_dimension,
                    auction::PaymentMethod payment_method
                    = auction::PaymentMethod::integral);

    [[nodiscard]] fl::SelectionRecord select(std::size_t round, std::size_t k,
                                             stats::Rng& rng) override;
    [[nodiscard]] std::string name() const override {
        return wd_config_.psi < 1.0 ? "psi-FMore" : "FMore";
    }
    /// Winners train on the data volume they bid (when a data dimension is
    /// configured) — the signal wall-clock models key round timing on.
    [[nodiscard]] bool contracts_data_volume() const override {
        return data_dimension_ != npos;
    }

    /// One auction-only round over the reused buffers: drift (round > 1),
    /// collect, rank, select, price — no compliance rolls and no
    /// SelectionRecord assembly. This is the entry `bench/scale_round`
    /// times; a steady-state call allocates nothing. The returned outcome
    /// is owned by the selector and overwritten by the next round.
    [[nodiscard]] const auction::AuctionOutcome& run_auction_round(std::size_t round,
                                                                   std::size_t k,
                                                                   stats::Rng& rng);

    /// The sealed bids of the most recent round (inspection/benches),
    /// materialized lazily from the frame.
    [[nodiscard]] const std::vector<auction::Bid>& last_bids() const;

    /// Enable the contract-compliance model (Section III.A step 4): winners
    /// may under-deliver; detected defectors are blacklisted and excluded
    /// from all later auctions.
    void set_compliance(const ComplianceSpec& spec) { compliance_ = spec; }
    [[nodiscard]] const Blacklist& blacklist() const { return blacklist_; }

    /// Durable-run hooks: the selector's only cross-round state is the
    /// blacklist (the population is trial-owned and snapshotted there).
    void save_checkpoint(fl::SelectorCheckpoint& ckpt) const override {
        for (std::size_t node : blacklist_.banned_ids())
            ckpt.banned_nodes.push_back(node);
    }
    /// @throws std::invalid_argument on a banned id outside the population
    void restore_checkpoint(const fl::SelectorCheckpoint& ckpt) override {
        restore_bans(blacklist_, ckpt.banned_nodes, population_.size());
    }

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

private:
    void collect_frame();

    MecPopulation& population_;
    const auction::ScoringRule& scoring_;
    const auction::EquilibriumStrategy& strategy_;
    auction::WinnerDeterminationConfig wd_config_;
    QualityLayout layout_;
    std::size_t data_dimension_;
    auction::PaymentMethod payment_method_;
    ComplianceSpec compliance_;
    Blacklist blacklist_;
    /// True when `strategy_` was solved against `scoring_` itself, letting
    /// the collector reuse the quote's s(q) as the aggregator score.
    bool strategy_scores_broadcast_rule_ = false;

    // Round state, reused across rounds.
    auction::BidFrame frame_;
    auction::RankScratch scratch_;
    auction::AuctionOutcome outcome_;
    std::vector<const double*> columns_;
    std::shared_ptr<const auction::Mechanism> mechanism_;
    std::size_t mechanism_k_ = npos;

    // The lazy `last_bids()` cache.
    mutable std::vector<auction::Bid> last_bids_;
    mutable bool last_bids_stale_ = false;
};

} // namespace fmore::mec
