#include "fmore/mec/sharded_selector.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <typeinfo>
#include <utility>

namespace fmore::mec {

ShardedAuctionSelector::ShardedAuctionSelector(MecPopulation& population,
                                               const auction::ScoringRule& scoring,
                                               const auction::EquilibriumStrategy& strategy,
                                               auction::WinnerDeterminationConfig wd_config,
                                               QualityLayout layout,
                                               std::size_t data_dimension,
                                               std::size_t num_shards,
                                               auction::PaymentMethod payment_method)
    : population_(&population),
      scoring_(scoring),
      strategy_(strategy),
      wd_config_(std::move(wd_config)),
      layout_(std::move(layout)),
      data_dimension_(data_dimension),
      payment_method_(payment_method) {
    init_shards_from_boundaries(population.store(), num_shards);
    validate_config();
}

ShardedAuctionSelector::ShardedAuctionSelector(std::vector<PopulationStore> shards,
                                               const auction::ScoringRule& scoring,
                                               const auction::EquilibriumStrategy& strategy,
                                               auction::WinnerDeterminationConfig wd_config,
                                               QualityLayout layout,
                                               std::size_t data_dimension,
                                               auction::PaymentMethod payment_method)
    : owned_(std::move(shards)),
      scoring_(scoring),
      strategy_(strategy),
      wd_config_(std::move(wd_config)),
      layout_(std::move(layout)),
      data_dimension_(data_dimension),
      payment_method_(payment_method) {
    if (owned_.empty())
        throw std::invalid_argument("ShardedAuctionSelector: no shard stores");
    // Contiguity: together the shards must tile [0, N) in order — that is
    // what makes "the same market, sharded" a meaningful claim.
    std::size_t expect = 0;
    for (const PopulationStore& shard : owned_) {
        if (shard.size() == 0)
            throw std::invalid_argument("ShardedAuctionSelector: empty shard store");
        if (shard.node_offset() != expect)
            throw std::invalid_argument(
                "ShardedAuctionSelector: shard at offset "
                + std::to_string(shard.node_offset()) + " expected at "
                + std::to_string(expect) + " (shards must tile [0, N) contiguously)");
        expect += shard.size();
    }
    shards_.reserve(owned_.size());
    starts_.reserve(owned_.size() + 1);
    for (const PopulationStore& shard : owned_) {
        starts_.push_back(shard.node_offset());
        shards_.push_back(Range{&shard, 0, shard.size(), shard.node_offset()});
    }
    starts_.push_back(expect);
    validate_config();
}

void ShardedAuctionSelector::init_shards_from_boundaries(const PopulationStore& store,
                                                         std::size_t num_shards) {
    const std::vector<std::size_t> cuts =
        PopulationStore::even_boundaries(store.size(), num_shards);
    shards_.reserve(num_shards);
    starts_.reserve(num_shards + 1);
    std::size_t lo = 0;
    for (std::size_t s = 0; s < num_shards; ++s) {
        const std::size_t hi = s + 1 < num_shards ? cuts[s] : store.size();
        shards_.push_back(Range{&store, lo, hi, store.node_offset() + lo});
        starts_.push_back(store.node_offset() + lo);
        lo = hi;
    }
    starts_.push_back(store.node_offset() + store.size());
}

void ShardedAuctionSelector::validate_config() {
    strategy_scores_broadcast_rule_ = strategy_.scoring_rule() == &scoring_;
    check_bid_layout(layout_, strategy_, scoring_, strategy_scores_broadcast_rule_);
}

void ShardedAuctionSelector::set_shard_timeout(double seconds) {
    if (!(seconds >= 0.0) || std::isinf(seconds))
        throw std::invalid_argument("ShardedAuctionSelector: shard timeout = "
                                    + std::to_string(seconds)
                                    + ": must be finite and >= 0 (0 disables it)");
    shard_timeout_s_ = seconds;
}

void ShardedAuctionSelector::evolve_shards(stats::Rng& rng) {
    // ONE salt for the whole market (exactly the draw the monolithic
    // `MecPopulation::evolve` consumes); per-node streams are keyed by
    // global id, so every shard — and the view-mode population itself —
    // drifts bit-identically to the unsplit store. Dropped shards evolve
    // too: a slow shard's nodes keep living, they just miss the deadline.
    const std::uint64_t salt = rng.engine()();
    if (population_ != nullptr) {
        population_->evolve_with_salt(salt);
    } else {
        for (PopulationStore& shard : owned_) shard.evolve_with_salt(salt);
    }
}

void ShardedAuctionSelector::refresh_dropped(std::size_t round) {
    last_dropped_.clear();
    dropped_flag_.assign(shards_.size(), 0);
    if (shard_timeout_s_ > 0.0 && latency_) {
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            if (latency_(s, round) > shard_timeout_s_) {
                dropped_flag_[s] = 1;
                last_dropped_.push_back(s);
            }
        }
    }
    const std::size_t live = shards_.size() - last_dropped_.size();
    if (min_live_shards_ > 0 && live < min_live_shards_)
        throw std::runtime_error(
            "ShardedAuctionSelector: round " + std::to_string(round) + ": only "
            + std::to_string(live) + " of " + std::to_string(shards_.size())
            + " shards made the " + std::to_string(shard_timeout_s_)
            + "s deadline, below the configured quorum of "
            + std::to_string(min_live_shards_)
            + " (auction.shard_quorum) — raise auction.shard_timeout_s, lower "
              "the quorum, or fix the failing shards");
}

const auction::Mechanism* ShardedAuctionSelector::mechanism_for(std::size_t k) {
    if (!mechanism_ || mechanism_k_ != k) {
        auction::WinnerDeterminationConfig wd = wd_config_;
        wd.num_winners = k;
        mechanism_ = auction::make_mechanism(wd);
        mechanism_k_ = k;
    }
    return mechanism_.get();
}

void ShardedAuctionSelector::run_fused_sharded(
    const auction::ScoreAuctionMechanism& engine, std::size_t k, stats::Rng& rng) {
    (void)k;
    const std::size_t dims = layout_.size();
    frames_.resize(shards_.size());
    heads_.resize(shards_.size());

    // Per-shard collect: the same fused pass the monolithic selector runs,
    // restricted to the shard's rows.
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        if (dropped_flag_[s] != 0) continue;
        const Range& shard = shards_[s];
        frames_[s].reset(shard.hi - shard.lo, dims);
        collect_bid_rows(*shard.store, shard.lo, shard.hi, layout_, strategy_, scoring_,
                         strategy_scores_broadcast_rule_, payment_method_, blacklist_,
                         frames_[s], 0, columns_, /*parallel=*/true);
        frames_[s].set_scored(true);
    }

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
    // global head (see shard_merge.hpp).
    const std::size_t cutoff = engine.ranking_cutoff(m);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        heads_[s].clear();
        if (dropped_flag_[s] != 0) continue;
        auction::collect_shard_head(frames_[s], shards_[s].base, keys, cutoff,
                                    heads_[s]);
    }
    auction::merge_heads(heads_, cutoff, outcome_.ranking);

    // Selection and pricing run coordinator-side on the merged head — the
    // same entries, hence the same generator draws, as the monolithic
    // round.
    engine.select_into(outcome_.ranking, rng, scratch_.chosen);
    engine.price_into(scoring_, outcome_.ranking, scratch_.chosen, outcome_.winners);
}

void ShardedAuctionSelector::run_gathered(const auction::Mechanism& mechanism,
                                          stats::Rng& rng) {
    // Gather lane: reassemble the global frame and let the mechanism's own
    // run_frame drive the round — exact semantics for any registered
    // mechanism, including wholesale run() overrides, at O(N) shipping
    // cost. Only the exact built-in engine gets the bounded-head fast lane.
    const std::size_t n = starts_.back();
    gather_frame_.reset(n, layout_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const Range& shard = shards_[s];
        if (dropped_flag_[s] != 0) {
            for (std::size_t g = starts_[s]; g < starts_[s + 1]; ++g)
                gather_frame_.set_active(g, false);
            continue;
        }
        collect_bid_rows(*shard.store, shard.lo, shard.hi, layout_, strategy_, scoring_,
                         strategy_scores_broadcast_rule_, payment_method_, blacklist_,
                         gather_frame_, shard.base, columns_, /*parallel=*/true);
    }
    gather_frame_.set_scored(true);
    mechanism.run_frame(scoring_, gather_frame_, rng, scratch_, outcome_);
}

const auction::AuctionOutcome&
ShardedAuctionSelector::run_auction_round(std::size_t round, std::size_t k,
                                          stats::Rng& rng) {
    // Round 1 bids on the initial resource state; drift applies afterwards
    // (same convention as the monolithic selector).
    if (round > 1) evolve_shards(rng);
    refresh_dropped(round);
    const auction::Mechanism* mechanism = mechanism_for(k);
    const auto* engine = dynamic_cast<const auction::ScoreAuctionMechanism*>(mechanism);
    const bool exact =
        engine != nullptr && typeid(*mechanism) == typeid(auction::ScoreAuctionMechanism);
    gather_lane_ = !exact;
    if (exact) {
        run_fused_sharded(*engine, k, rng);
    } else {
        run_gathered(*mechanism, rng);
    }
    return outcome_;
}

double ShardedAuctionSelector::bid_quality(auction::NodeId node, std::size_t dim) const {
    if (gather_lane_) return gather_frame_.quality_row(node)[dim];
    // starts_ is sorted; find the shard whose range holds `node`.
    const auto it = std::upper_bound(starts_.begin(), starts_.end(), node);
    const std::size_t s = static_cast<std::size_t>(it - starts_.begin()) - 1;
    return frames_[s].quality_row(node - shards_[s].base)[dim];
}

fl::SelectionRecord ShardedAuctionSelector::select(std::size_t round, std::size_t k,
                                                   stats::Rng& rng) {
    (void)run_auction_round(round, k, rng);
    std::function<double(auction::NodeId)> promised;
    if (data_dimension_ != npos) {
        promised = [this](auction::NodeId node) {
            return bid_quality(node, data_dimension_);
        };
    }
    fl::SelectionRecord record = assemble_selection_record(
        outcome_, starts_.back(), promised, compliance_, blacklist_, rng);
    record.dropped_shards = last_dropped_;
    record.shard_health.live_shards = shards_.size() - last_dropped_.size();
    return record;
}

} // namespace fmore::mec
