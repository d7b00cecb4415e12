#include "fmore/mec/sharded_selector.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <utility>

#include "fmore/util/thread_pool.hpp"

namespace fmore::mec {

ShardedAuctionSelector::ShardedAuctionSelector(MecPopulation& population,
                                               const auction::ScoringRule& scoring,
                                               const auction::EquilibriumStrategy& strategy,
                                               auction::WinnerDeterminationConfig wd_config,
                                               QualityLayout layout,
                                               std::size_t data_dimension,
                                               std::size_t num_shards,
                                               auction::PaymentMethod payment_method)
    : ShardedAuctionSelector(population, scoring, strategy, std::move(wd_config),
                             std::move(layout), data_dimension,
                             PopulationStore::even_boundaries(population.size(), num_shards),
                             payment_method) {}

ShardedAuctionSelector::ShardedAuctionSelector(MecPopulation& population,
                                               const auction::ScoringRule& scoring,
                                               const auction::EquilibriumStrategy& strategy,
                                               auction::WinnerDeterminationConfig wd_config,
                                               QualityLayout layout,
                                               std::size_t data_dimension,
                                               const std::vector<std::size_t>& cuts,
                                               auction::PaymentMethod payment_method)
    : MarketSelector(population, scoring, strategy, std::move(wd_config), std::move(layout),
                     data_dimension, payment_method) {
    // Together the shards must tile the store in order, none of them empty
    // — that is what makes "the same market, sharded" a meaningful claim.
    const std::size_t n = population.size();
    const std::size_t offset = population.store().node_offset();
    starts_.reserve(cuts.size() + 2);
    starts_.push_back(offset);
    for (const std::size_t cut : cuts) {
        if (cut == 0 || cut >= n)
            throw std::invalid_argument("ShardedAuctionSelector: cut " + std::to_string(cut)
                                        + " outside (0, " + std::to_string(n) + ")");
        if (offset + cut <= starts_.back())
            throw std::invalid_argument(
                "ShardedAuctionSelector: cuts must be strictly increasing");
        starts_.push_back(offset + cut);
    }
    starts_.push_back(offset + n);
}

void ShardedAuctionSelector::set_shard_timeout(double seconds) {
    if (!(seconds >= 0.0) || std::isinf(seconds))
        throw std::invalid_argument("ShardedAuctionSelector: shard timeout = "
                                    + std::to_string(seconds)
                                    + ": must be finite and >= 0 (0 disables it)");
    shard_timeout_s_ = seconds;
}

void ShardedAuctionSelector::refresh_dropped(std::size_t round) {
    last_dropped_.clear();
    dropped_flag_.assign(num_shards(), 0);
    if (shard_timeout_s_ > 0.0 && latency_) {
        for (std::size_t s = 0; s < num_shards(); ++s) {
            if (latency_(s, round) > shard_timeout_s_) {
                dropped_flag_[s] = 1;
                last_dropped_.push_back(s);
            }
        }
    }
    const std::size_t live = num_shards() - last_dropped_.size();
    if (min_live_shards_ > 0 && live < min_live_shards_)
        throw std::runtime_error(
            "ShardedAuctionSelector: round " + std::to_string(round) + ": only "
            + std::to_string(live) + " of " + std::to_string(num_shards())
            + " shards made the " + std::to_string(shard_timeout_s_)
            + "s deadline, below the configured quorum of "
            + std::to_string(min_live_shards_)
            + " (auction.shard_quorum) — raise auction.shard_timeout_s, lower "
              "the quorum, or fix the failing shards");
}

void ShardedAuctionSelector::run_fused_sharded(const auction::ScoreAuctionMechanism& engine,
                                               stats::Rng& rng) {
    // Tie-break keys and the active count. The active set is exactly "not
    // blacklisted" — a fact the coordinator owns — so it is derivable
    // without any shard data, which is what lets shuffle mode replay the
    // monolithic round's global permutation (same length, same generator
    // draws) even when a shard misses the deadline. Salted keys need only
    // the count, and every ban names a node below N (winners are nodes, and
    // restore_checkpoint checks its ids), so only shuffle mode lists the ids.
    const bool salted = engine.spec().tie_break == auction::TieBreak::salted;
    std::vector<std::size_t>& active = scratch_.active;
    active.clear();
    if (!salted)
        for (std::size_t g = 0; g < starts_.back(); ++g)
            if (!blacklist_.contains(g)) active.push_back(g);
    const std::size_t m = salted ? starts_.back() - blacklist_.size() : active.size();
    const auction::TieKeys keys =
        auction::draw_tie_keys(salted, active, starts_.back(), rng, scratch_);

    // One cutoff rule for shards and coordinator: per-shard heads are
    // bounded by the GLOBAL cutoff, so their union provably contains the
    // global head (see shard_merge.hpp). Each live shard's head is the pass
    // a forked worker runs over its rows; shards share the pool, and a pool
    // slot reuses its own scratch.
    const std::size_t cutoff = engine.ranking_cutoff(m);
    const PopulationStore& store = population_.store();
    const std::size_t shards = num_shards();
    heads_.resize(shards);
    const std::size_t workers = util::resolve_round_threads(0, shards);
    if (head_scratch_.size() < workers) head_scratch_.resize(workers);
    const auto shard_head = [&](std::size_t slot, std::size_t s) {
        heads_[s].clear();
        if (dropped_flag_[s] != 0) return;
        HeadScratch& scratch = head_scratch_[slot];
        collect_head_rows(store, starts_[s] - starts_[0], starts_[s + 1] - starts_[0], layout_,
                          strategy_, scoring_, strategy_scores_broadcast_rule_,
                          payment_method_, blacklist_, nullptr, keys, cutoff,
                          scratch.columns, scratch.head, heads_[s]);
    };
    if (workers <= 1) {
        for (std::size_t s = 0; s < shards; ++s) shard_head(0, s);
    } else {
        util::ThreadPool::shared().parallel_for(shards, workers - 1, shard_head);
    }
    auction::merge_heads(heads_, cutoff, merge_, outcome_.ranking);

    // Selection and pricing run coordinator-side on the merged head — the
    // same entries, hence the same generator draws, as the monolithic
    // round.
    engine.select_into(outcome_.ranking, rng, scratch_.chosen);
    engine.price_into(scoring_, outcome_.ranking, scratch_.chosen, outcome_.winners);
}

void ShardedAuctionSelector::run_gathered(const auction::Mechanism& mechanism,
                                          stats::Rng& rng) {
    // Gather lane: the market's one frame collect, the dropped shards' rows
    // deactivated, and the mechanism's own run_frame drives the round —
    // exact semantics for any registered mechanism, including wholesale
    // run() overrides, at O(N) cost. Only the exact built-in engine gets
    // the bounded-head fast lane.
    collect_frame();
    for (const std::size_t s : last_dropped_)
        for (std::size_t g = starts_[s]; g < starts_[s + 1]; ++g) frame_.set_active(g, false);
    mechanism.run_frame(scoring_, frame_, rng, scratch_, outcome_);
}

const auction::AuctionOutcome&
ShardedAuctionSelector::run_auction_round(std::size_t round, std::size_t k,
                                          stats::Rng& rng) {
    // Round 1 bids on the initial resource state; drift applies afterwards
    // (same convention as the monolithic selector). ONE salt for the whole
    // market, exactly the draw the monolithic `MecPopulation::evolve`
    // consumes; per-node streams are keyed by global id, so the population
    // drifts as its shards would. Dropped shards drift too: a slow shard's
    // nodes keep living, they just miss the deadline.
    if (round > 1) population_.evolve_with_salt(rng.engine()());
    refresh_dropped(round);
    const auction::Mechanism& mechanism = *mechanism_for(k);
    gather_lane_ = typeid(mechanism) != typeid(auction::ScoreAuctionMechanism);
    if (gather_lane_) {
        run_gathered(mechanism, rng);
    } else {
        run_fused_sharded(static_cast<const auction::ScoreAuctionMechanism&>(mechanism), rng);
    }
    return outcome_;
}

const double* ShardedAuctionSelector::winner_quality(auction::NodeId node) const {
    if (gather_lane_) return MarketSelector::winner_quality(node);
    // A winner is one of the merged head's rows `select_into` chose.
    for (const std::size_t i : scratch_.chosen)
        if (outcome_.ranking[i].bid.node == node) return outcome_.ranking[i].bid.quality.data();
    throw std::logic_error("ShardedAuctionSelector: node " + std::to_string(node)
                           + " is no winner of the round");
}

void ShardedAuctionSelector::annotate(fl::SelectionRecord& record) const {
    record.dropped_shards = last_dropped_;
    record.shard_health.live_shards = num_shards() - last_dropped_.size();
}

} // namespace fmore::mec
