#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "fmore/auction/bid_frame.hpp"
#include "fmore/auction/equilibrium.hpp"
#include "fmore/auction/winner_determination.hpp"
#include "fmore/fl/run_state.hpp"
#include "fmore/fl/selection.hpp"
#include "fmore/mec/blacklist.hpp"
#include "fmore/mec/population.hpp"

namespace fmore::mec {

/// Maps a node's available resources onto the quality dimensions the
/// broadcast scoring rule prices. Experiments differ: the simulation uses
/// (data size, category proportion), the testbed (cpu, bandwidth, data).
using QualityExtractor =
    std::function<auction::QualityVector(const ResourceState& available)>;

/// Positional column map: quality dimension d is read from the population
/// store's `layout[d]` column. This is the fused-path form of a
/// QualityExtractor — no per-node vector is ever built.
using QualityLayout = std::vector<ResourceDim>;

/// How the selector reads each node's available resources. A column
/// `layout` enables the allocation-free fused SoA round path (an
/// equivalent `fn` is derived for the AoS reference path); a bare custom
/// function is always honoured but pins the selector to the classic
/// per-bid path, since the store cannot see through arbitrary code.
struct QualitySource {
    QualityLayout layout;
    QualityExtractor fn;

    QualitySource(QualityLayout layout);  // NOLINT(google-explicit-constructor)
    QualitySource(QualityExtractor fn);   // NOLINT(google-explicit-constructor)
};

/// Canned sources for the paper's two setups.
QualitySource data_category_extractor();
QualitySource cpu_bandwidth_data_extractor();

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
/// @throws std::invalid_argument when the layout is empty or wider than
///         1024 columns, or when its width differs from the strategy's
///         (or, for another broadcast rule, the scoring rule's) dimensions
void collect_bid_rows(const PopulationStore& store, std::size_t lo, std::size_t hi,
                      const QualityLayout& layout,
                      const auction::EquilibriumStrategy& strategy,
                      const auction::ScoringRule& scoring,
                      bool strategy_scores_broadcast_rule,
                      auction::PaymentMethod payment_method, const Blacklist& blacklist,
                      auction::BidFrame& frame, std::size_t frame_base,
                      std::vector<const double*>& columns, bool parallel);

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
/// Two equivalent engines drive a round:
///  - the **fused SoA path** (default when a QualityLayout is available):
///    bids are written straight into a reused `auction::BidFrame` by
///    parallel chunks reading the population store's columns, ranked by
///    `Mechanism::rank_frame`'s fused score+top-K pass, selected and
///    priced into reused buffers — a steady-state round performs zero
///    allocations in the bid path and never materializes N `Bid` objects;
///  - the **classic path** (custom extractors, or `FMORE_BID_PATH=legacy`):
///    the historical per-bid `std::vector<Bid>` collection plus a
///    `WinnerDetermination` rebuilt per round — kept as the reference the
///    equivalence tests and the scale bench compare against.
/// Winners, payments and metrics are bit-identical across the two.
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
    AuctionSelector(MecPopulation& population,
                    const auction::ScoringRule& scoring,
                    const auction::EquilibriumStrategy& strategy,
                    auction::WinnerDeterminationConfig wd_config,
                    QualitySource source, std::size_t data_dimension,
                    auction::PaymentMethod payment_method
                    = auction::PaymentMethod::integral);
    /// Custom-extractor convenience overload (classic path).
    AuctionSelector(MecPopulation& population,
                    const auction::ScoringRule& scoring,
                    const auction::EquilibriumStrategy& strategy,
                    auction::WinnerDeterminationConfig wd_config,
                    QualityExtractor extractor, std::size_t data_dimension,
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
    /// times; on the fused path a steady-state call allocates nothing.
    /// The returned outcome is owned by the selector and overwritten by
    /// the next round.
    [[nodiscard]] const auction::AuctionOutcome& run_auction_round(std::size_t round,
                                                                   std::size_t k,
                                                                   stats::Rng& rng);

    /// True when rounds run the fused SoA path (layout available and
    /// `FMORE_BID_PATH` does not force the classic one).
    [[nodiscard]] bool fused_path() const { return fused_path_; }

    /// The sealed bids of the most recent round (inspection/benches); on
    /// the fused path they are materialized lazily from the frame.
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
    void restore_checkpoint(const fl::SelectorCheckpoint& ckpt) override {
        blacklist_.clear();
        for (std::uint64_t node : ckpt.banned_nodes)
            blacklist_.ban(static_cast<std::size_t>(node));
    }

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

private:
    void collect_frame();
    void run_fused_round(std::size_t k, stats::Rng& rng);
    void run_classic_round(std::size_t k, stats::Rng& rng);
    [[nodiscard]] double bid_quality(auction::NodeId node, std::size_t dim) const;

    MecPopulation& population_;
    const auction::ScoringRule& scoring_;
    const auction::EquilibriumStrategy& strategy_;
    auction::WinnerDeterminationConfig wd_config_;
    QualityLayout layout_;
    QualityExtractor extractor_;
    std::size_t data_dimension_;
    auction::PaymentMethod payment_method_;
    ComplianceSpec compliance_;
    Blacklist blacklist_;
    bool fused_path_ = false;
    /// True when `strategy_` was solved against `scoring_` itself, letting
    /// the collector reuse the quote's s(q) as the aggregator score.
    bool strategy_scores_broadcast_rule_ = false;

    // Fused-path state, reused across rounds.
    auction::BidFrame frame_;
    auction::RankScratch scratch_;
    auction::AuctionOutcome outcome_;
    std::vector<const double*> columns_;
    std::shared_ptr<const auction::Mechanism> mechanism_;
    std::size_t mechanism_k_ = npos;

    // Classic-path bid list, doubling as the lazy `last_bids()` cache.
    mutable std::vector<auction::Bid> last_bids_;
    mutable bool last_bids_stale_ = false;
};

} // namespace fmore::mec
