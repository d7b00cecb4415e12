#include "fmore/reference/classic_auction_selector.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <utility>

namespace fmore::reference {

namespace {

double resource_value(const mec::ResourceState& r, mec::ResourceDim dim) {
    switch (dim) {
        case mec::ResourceDim::data_size: return r.data_size;
        case mec::ResourceDim::category_proportion: return r.category_proportion;
        case mec::ResourceDim::bandwidth: return r.bandwidth_mbps;
        case mec::ResourceDim::cpu: return r.cpu_cores;
    }
    throw std::logic_error("ClassicAuctionSelector: unknown ResourceDim");
}

/// The built-in engine with the vector ranking the per-bid market ran
/// before the market order was written once: every bid copied into a
/// ScoredBid, then an index sort under salted keys, or a coin-flip shuffle
/// and a stable sort by score. Selection and pricing are the engine's.
class ClassicRankMechanism final : public auction::Mechanism {
public:
    explicit ClassicRankMechanism(const auction::MechanismSpec& spec)
        : engine_(auction::make_mechanism(spec)) {}

    [[nodiscard]] std::string name() const override { return engine_->name(); }

    [[nodiscard]] std::vector<auction::ScoredBid> rank(const auction::ScoringRule& scoring,
                                                       const std::vector<auction::Bid>& bids,
                                                       stats::Rng& rng) const override {
        if (typeid(*engine_) != typeid(auction::ScoreAuctionMechanism))
            return engine_->rank(scoring, bids, rng);
        const auto& engine = static_cast<const auction::ScoreAuctionMechanism&>(*engine_);
        std::vector<auction::ScoredBid> ranking;
        ranking.reserve(bids.size());
        for (const auction::Bid& bid : bids) ranking.push_back({bid, scoring.score(bid)});
        if (engine.spec().tie_break == auction::TieBreak::salted) {
            const std::uint64_t salt = rng.engine()();
            std::vector<std::uint64_t> keys(ranking.size());
            for (std::size_t i = 0; i < ranking.size(); ++i)
                keys[i] = stats::derive_stream_seed(salt, ranking[i].bid.node);
            std::vector<std::size_t> idx(ranking.size());
            for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
            const auto cmp = [&](std::size_t a, std::size_t b) {
                if (ranking[a].score != ranking[b].score)
                    return ranking[a].score > ranking[b].score;
                if (keys[a] != keys[b]) return keys[a] < keys[b];
                return ranking[a].bid.node < ranking[b].bid.node;
            };
            const std::size_t top = engine.ranking_cutoff(ranking.size());
            if (top >= idx.size()) {
                std::sort(idx.begin(), idx.end(), cmp);
            } else {
                std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(top),
                                  idx.end(), cmp);
            }
            std::vector<auction::ScoredBid> head;
            head.reserve(std::min(top, idx.size()));
            for (std::size_t i = 0; i < std::min(top, idx.size()); ++i)
                head.push_back(std::move(ranking[idx[i]]));
            return head;
        }

        // Random shuffle first, then sort by score: bids with exactly equal
        // scores end up in coin-flip order.
        std::vector<std::size_t> order(ranking.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        rng.shuffle(order);
        std::vector<auction::ScoredBid> shuffled;
        shuffled.reserve(ranking.size());
        for (const std::size_t i : order) shuffled.push_back(std::move(ranking[i]));

        const std::size_t top = engine.ranking_cutoff(shuffled.size());
        if (top >= shuffled.size()) {
            std::stable_sort(shuffled.begin(), shuffled.end(),
                             [](const auction::ScoredBid& a, const auction::ScoredBid& b) {
                                 return a.score > b.score;
                             });
            return shuffled;
        }
        std::vector<std::size_t> idx(shuffled.size());
        for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
        std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(top),
                          idx.end(), [&shuffled](std::size_t a, std::size_t b) {
                              if (shuffled[a].score != shuffled[b].score)
                                  return shuffled[a].score > shuffled[b].score;
                              return a < b;
                          });
        std::vector<auction::ScoredBid> head;
        head.reserve(top);
        for (std::size_t i = 0; i < top; ++i) head.push_back(std::move(shuffled[idx[i]]));
        return head;
    }

    [[nodiscard]] std::vector<std::size_t> select(const std::vector<auction::ScoredBid>& ranking,
                                                  stats::Rng& rng) const override {
        return engine_->select(ranking, rng);
    }

    [[nodiscard]] std::vector<auction::Winner>
    price(const auction::ScoringRule& scoring, const std::vector<auction::ScoredBid>& ranking,
          const std::vector<std::size_t>& chosen) const override {
        return engine_->price(scoring, ranking, chosen);
    }

private:
    std::unique_ptr<auction::Mechanism> engine_;
};

} // namespace

ClassicAuctionSelector::ClassicAuctionSelector(mec::MecPopulation& population,
                                               const auction::ScoringRule& scoring,
                                               const auction::EquilibriumStrategy& strategy,
                                               auction::WinnerDeterminationConfig wd_config,
                                               mec::QualityLayout layout,
                                               std::size_t data_dimension,
                                               auction::PaymentMethod payment_method)
    : population_(population),
      scoring_(scoring),
      strategy_(strategy),
      wd_config_(std::move(wd_config)),
      layout_(std::move(layout)),
      data_dimension_(data_dimension),
      payment_method_(payment_method) {
    if (layout_.size() != strategy_.dimensions())
        throw std::logic_error("ClassicAuctionSelector: layout/strategy dimension mismatch");
    // The per-node extractor the pre-SoA market called: one vector of the
    // layout's resources per bid.
    const mec::QualityLayout& dims = layout_;
    extractor_ = [dims](const mec::ResourceState& r) {
        auction::QualityVector q(dims.size());
        for (std::size_t d = 0; d < dims.size(); ++d) q[d] = resource_value(r, dims[d]);
        return q;
    };
}

const auction::AuctionOutcome& ClassicAuctionSelector::run_auction_round(std::size_t round,
                                                                         std::size_t k,
                                                                         stats::Rng& rng) {
    // Round 1 bids on the initial resource state; drift applies afterwards.
    if (round > 1) population_.evolve(rng);
    const mec::PopulationStore& store = population_.store();
    bids_.clear();
    bids_.reserve(store.size());
    for (std::size_t i = 0; i < store.size(); ++i) {
        // Blacklisted defaulters are shut out of bid collection.
        if (blacklist_.contains(i)) continue;
        const auction::QualityVector available = extractor_(store.resources(i));
        auction::QualityVector q = strategy_.quality(store.theta(i));
        if (q.size() != available.size())
            throw std::logic_error(
                "ClassicAuctionSelector: extractor/strategy dimension mismatch");
        for (std::size_t d = 0; d < q.size(); ++d) q[d] = std::min(q[d], available[d]);
        const double p = strategy_.payment_for(q, store.theta(i), payment_method_);
        bids_.push_back(auction::Bid{i, std::move(q), p});
    }
    auction::WinnerDeterminationConfig wd = wd_config_;
    wd.num_winners = k;
    const auction::WinnerDetermination determination(
        scoring_, wd, std::make_shared<const ClassicRankMechanism>(wd));
    outcome_ = determination.run(bids_, rng);
    return outcome_;
}

fl::SelectionRecord ClassicAuctionSelector::select(std::size_t round, std::size_t k,
                                                   stats::Rng& rng) {
    (void)run_auction_round(round, k, rng);
    // Winners resolve their promised data volume through the bid list.
    std::function<double(auction::NodeId)> promised;
    std::vector<std::size_t> bid_of_node;
    if (data_dimension_ != npos) {
        bid_of_node.assign(population_.size(), npos);
        for (std::size_t i = 0; i < bids_.size(); ++i) bid_of_node[bids_[i].node] = i;
        promised = [this, &bid_of_node](auction::NodeId node) {
            return bids_[bid_of_node[node]].quality[data_dimension_];
        };
    }
    return mec::assemble_selection_record(outcome_, population_.size(), promised,
                                          compliance_, blacklist_, rng);
}

} // namespace fmore::reference
