#pragma once

/// @file classic_auction_selector.hpp
/// The per-bid market the fused SoA round replaced, kept outside the
/// libraries as the reference the equivalence tests and the scale bench
/// compare `mec::AuctionSelector` against. Each round walks the population
/// store node by node through `PopulationStore::resources`, builds one
/// `QualityVector` per bid, and runs a `WinnerDetermination` rebuilt for
/// the round over the `std::vector<Bid>`; the record is assembled by the
/// same `mec::assemble_selection_record` every production selector uses.
/// The determination ranks with the vector ranking as the per-bid market
/// ran it (every bid copied into a ScoredBid, then a shuffle and a stable
/// sort, or an index sort under salted keys), so this market shares no
/// ranking code with `auction::MarketOrder`. Winners, payments, scores and
/// generator draws are bit-identical to the fused round (SoaBitIdentity,
/// `bench/scale_round`'s classic leg).

#include <cstddef>
#include <functional>
#include <vector>

#include "fmore/auction/equilibrium.hpp"
#include "fmore/auction/winner_determination.hpp"
#include "fmore/fl/selection.hpp"
#include "fmore/mec/auction_selector.hpp"
#include "fmore/mec/blacklist.hpp"
#include "fmore/mec/population.hpp"

namespace fmore::reference {

class ClassicAuctionSelector {
public:
    static constexpr std::size_t npos = mec::AuctionSelector::npos;

    /// Same construction surface as `mec::AuctionSelector`.
    /// @throws std::logic_error when the layout and strategy differ in
    ///         dimensions
    ClassicAuctionSelector(mec::MecPopulation& population,
                           const auction::ScoringRule& scoring,
                           const auction::EquilibriumStrategy& strategy,
                           auction::WinnerDeterminationConfig wd_config,
                           mec::QualityLayout layout, std::size_t data_dimension,
                           auction::PaymentMethod payment_method
                           = auction::PaymentMethod::integral);

    /// Drift (round > 1), per-bid collection, winner determination and
    /// the selection record with compliance rolls.
    [[nodiscard]] fl::SelectionRecord select(std::size_t round, std::size_t k,
                                             stats::Rng& rng);

    /// The auction alone: drift (round > 1), collect, rank, select, price.
    /// The outcome is overwritten by the next round.
    [[nodiscard]] const auction::AuctionOutcome& run_auction_round(std::size_t round,
                                                                   std::size_t k,
                                                                   stats::Rng& rng);

    /// The sealed bids of the most recent round, in node order.
    [[nodiscard]] const std::vector<auction::Bid>& last_bids() const { return bids_; }

    void set_compliance(const mec::ComplianceSpec& spec) { compliance_ = spec; }
    [[nodiscard]] const mec::Blacklist& blacklist() const { return blacklist_; }

private:
    mec::MecPopulation& population_;
    const auction::ScoringRule& scoring_;
    const auction::EquilibriumStrategy& strategy_;
    auction::WinnerDeterminationConfig wd_config_;
    mec::QualityLayout layout_;
    std::function<auction::QualityVector(const mec::ResourceState&)> extractor_;
    std::size_t data_dimension_;
    auction::PaymentMethod payment_method_;
    mec::ComplianceSpec compliance_;
    mec::Blacklist blacklist_;
    std::vector<auction::Bid> bids_;
    auction::AuctionOutcome outcome_;
};

} // namespace fmore::reference
