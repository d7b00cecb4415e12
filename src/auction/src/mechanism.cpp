#include "fmore/auction/mechanism.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <typeinfo>
#include <utility>

#include "fmore/auction/latency_discount.hpp"
#include "fmore/auction/market_order.hpp"
#include "fmore/util/registry.hpp"
#include "fmore/util/thread_pool.hpp"

namespace fmore::auction {

// ---------------------------------------------------------------------------
// Mechanism
// ---------------------------------------------------------------------------

AuctionOutcome Mechanism::run(const ScoringRule& scoring, const std::vector<Bid>& bids,
                              stats::Rng& rng) const {
    AuctionOutcome outcome;
    outcome.ranking = rank(scoring, bids, rng);
    const std::vector<std::size_t> chosen = select(outcome.ranking, rng);
    outcome.winners = price(scoring, outcome.ranking, chosen);
    return outcome;
}

void Mechanism::rank_frame(const ScoringRule& scoring, const BidFrame& frame,
                           stats::Rng& rng, RankScratch& scratch,
                           std::vector<ScoredBid>& head) const {
    // Adapter default: any mechanism that only implements the vector API
    // works on frame-collected rounds (at the vector API's cost).
    frame.to_bids(scratch.bids);
    head = rank(scoring, scratch.bids, rng);
}

void ScoreAuctionMechanism::run_frame(const ScoringRule& scoring, const BidFrame& frame,
                                      stats::Rng& rng, RankScratch& scratch,
                                      AuctionOutcome& outcome) const {
    // Subclasses may override ANY vector-API stage (run/rank/select/price
    // — e.g. a reserve-price select()); composing our own _into stages
    // here would silently bypass those overrides on frame rounds. The
    // fused fast lane is therefore reserved for the exact engine type (all
    // built-in registry entries); subclasses route through the base
    // adapter, which honours every dynamic override at vector-API cost.
    if (typeid(*this) != typeid(ScoreAuctionMechanism)) {
        Mechanism::run_frame(scoring, frame, rng, scratch, outcome);
        return;
    }
    rank_frame(scoring, frame, rng, scratch, outcome.ranking);
    select_into(outcome.ranking, rng, scratch.chosen);
    price_into(scoring, outcome.ranking, scratch.chosen, outcome.winners);
}

// ---------------------------------------------------------------------------
// ScoreAuctionMechanism
// ---------------------------------------------------------------------------

namespace {

/// Safety valve for tiny psi: after this many full passes the remaining
/// slots are filled deterministically in score order.
constexpr std::size_t kMaxPsiPasses = 64;

void check_probability(double value, const std::string& what) {
    if (!(value > 0.0 && value <= 1.0) || std::isnan(value))
        throw std::invalid_argument(what + " = " + std::to_string(value)
                                    + ": must be a finite probability in (0, 1]"
                                      " (1.0 disables probabilistic acceptance)");
}

} // namespace

ScoreAuctionMechanism::ScoreAuctionMechanism(MechanismSpec spec, std::string name)
    : spec_(std::move(spec)), name_(std::move(name)) {
    if (spec_.num_winners == 0)
        throw std::invalid_argument("ScoreAuctionMechanism: K (num_winners) must be >= 1");
    check_probability(spec_.psi, "ScoreAuctionMechanism: psi");
    for (std::size_t i = 0; i < spec_.psi_per_node.size(); ++i) {
        check_probability(spec_.psi_per_node[i], "ScoreAuctionMechanism: psi_per_node["
                                                     + std::to_string(i) + "]");
    }
    if (!(spec_.budget >= 0.0) || std::isinf(spec_.budget))
        throw std::invalid_argument("ScoreAuctionMechanism: budget = "
                                    + std::to_string(spec_.budget)
                                    + ": must be finite and >= 0 (0 = unconstrained)");
}

std::string ScoreAuctionMechanism::name() const {
    return name_.empty() ? resolve_mechanism_name(spec_) : name_;
}

std::size_t ScoreAuctionMechanism::ranking_cutoff(std::size_t active) const {
    // The psi scan walks the whole board and `full_ranking` is the Fig. 8
    // contract, so both force the complete sort.
    const bool probabilistic = spec_.psi < 1.0 || !spec_.psi_per_node.empty();
    if (spec_.full_ranking || probabilistic) return active;
    std::size_t top = std::min<std::size_t>(active, spec_.num_winners);
    // Second-score payments price against the best loser, rank K.
    if (spec_.payment_rule == PaymentRule::second_price)
        top = std::min<std::size_t>(active, top + 1);
    return top;
}

std::vector<ScoredBid> ScoreAuctionMechanism::rank(const ScoringRule& scoring,
                                                   const std::vector<Bid>& bids,
                                                   stats::Rng& rng) const {
    // Coin flips over bid positions: a salted key hashes the bid's node, so
    // any subset of the bids (a shard, another process) orders its members
    // as the whole board would; a shuffle key is the bid's shuffled
    // position, which is the order a stable sort over the shuffled bids
    // gives. Either way one sort under the market order.
    RankScratch scratch;
    scratch.active.resize(bids.size());
    std::iota(scratch.active.begin(), scratch.active.end(), std::size_t{0});
    const TieKeys keys = draw_tie_keys(spec_.tie_break == TieBreak::salted, scratch.active,
                                       bids.size(), rng, scratch);
    struct Ranked {
        double score;
        std::uint64_t key;
        NodeId node;
        std::size_t bid;
    };
    std::vector<Ranked> ranked(bids.size());
    for (std::size_t i = 0; i < bids.size(); ++i) {
        const NodeId node = bids[i].node;
        ranked[i] = {bid_score(scoring, bids[i]), keys.key(keys.salted ? node : i), node, i};
    }
    const std::size_t top = ranking_cutoff(ranked.size());
    if (top >= ranked.size()) {
        std::sort(ranked.begin(), ranked.end(), MarketOrder{});
    } else {
        std::partial_sort(ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(top),
                          ranked.end(), MarketOrder{});
    }
    std::vector<ScoredBid> head;
    head.reserve(top);
    for (std::size_t r = 0; r < top; ++r)
        head.push_back({bids[ranked[r].bid], ranked[r].score});
    return head;
}

void ScoreAuctionMechanism::rank_frame(const ScoringRule& scoring, const BidFrame& frame,
                                       stats::Rng& rng, RankScratch& scratch,
                                       std::vector<ScoredBid>& head) const {
    // Same exact-type dispatch as run_frame: a subclass overriding rank()
    // must see its override even when a caller invokes rank_frame
    // directly — the fused lane below replicates the BASE ranking only.
    if (typeid(*this) != typeid(ScoreAuctionMechanism)) {
        Mechanism::rank_frame(scoring, frame, rng, scratch, head);
        return;
    }
    // Active rows in ascending node order — the same sequence
    // `BidFrame::to_bids` materializes, so the coin flip below consumes
    // exactly the RNG draws the vector path would.
    std::vector<std::size_t>& active = scratch.active;
    active.clear();
    for (NodeId row = 0; row < frame.rows(); ++row) {
        if (frame.active(row)) active.push_back(row);
    }
    const std::size_t m = active.size();
    // Per-row keys are a pure function of the row, so the scan below walks
    // rows in ASCENDING order — streaming the frame columns — and a shard
    // scanning only ITS rows computes the very keys they carry here.
    const TieKeys keys = draw_tie_keys(spec_.tie_break == TieBreak::salted, active,
                                       frame.rows(), rng, scratch);

    // Same cut-off rule as `rank` and the shard-head collector.
    const std::size_t top = ranking_cutoff(m);

    using Candidate = RankScratch::Candidate;
    const std::size_t dims = frame.dims();
    // A collector that filled the score column already did this arithmetic
    // with the row's quality hot in registers; otherwise score on the fly.
    const bool scored = frame.scored();
    const auto candidate_at = [&](std::size_t a) {
        const NodeId row = active[a];
        const double score =
            scored ? frame.score(row)
                   : scoring.score_span(frame.quality_row(row), dims, frame.payment(row));
        return Candidate{score, keys.key(row), row};
    };

    constexpr std::size_t kChunk = 2048;
    const std::size_t chunks = (m + kChunk - 1) / kChunk;
    const std::size_t workers =
        chunks <= 1 ? 1 : util::resolve_round_threads(0, chunks);

    std::vector<Candidate>& merged = scratch.merged;
    merged.clear();
    if (top >= m) {
        // Full board: one streaming pass (chunk-parallel when workers are
        // idle) and a single sort.
        merged.resize(m);
        if (workers <= 1) {
            for (std::size_t a = 0; a < m; ++a) merged[a] = candidate_at(a);
        } else {
            util::ThreadPool::shared().parallel_for(
                chunks, workers - 1, [&](std::size_t, std::size_t chunk) {
                    const std::size_t lo = chunk * kChunk;
                    const std::size_t hi = std::min(m, lo + kChunk);
                    for (std::size_t a = lo; a < hi; ++a) merged[a] = candidate_at(a);
                });
        }
        std::sort(merged.begin(), merged.end(), MarketOrder{});
    } else {
        // Fused top-K: each worker slot keeps a bounded top-K over the
        // chunks it happens to claim. The union of the slots always holds
        // the global top `top`, so the merge sort below yields the same
        // head regardless of how chunks landed on slots.
        const std::size_t slots = std::max<std::size_t>(1, workers);
        if (scratch.slot_heads.size() < slots) scratch.slot_heads.resize(slots);
        for (std::size_t slot = 0; slot < slots; ++slot) scratch.slot_heads[slot].clear();
        const auto consider = [&](std::size_t slot, std::size_t a) {
            BoundedTopK<Candidate>(scratch.slot_heads[slot], top).offer(candidate_at(a));
        };
        if (workers <= 1) {
            for (std::size_t a = 0; a < m; ++a) consider(0, a);
        } else {
            util::ThreadPool::shared().parallel_for(
                chunks, workers - 1, [&](std::size_t slot, std::size_t chunk) {
                    const std::size_t lo = chunk * kChunk;
                    const std::size_t hi = std::min(m, lo + kChunk);
                    for (std::size_t a = lo; a < hi; ++a) consider(slot, a);
                });
        }
        for (std::size_t slot = 0; slot < slots; ++slot) {
            const std::vector<Candidate>& kept = scratch.slot_heads[slot];
            merged.insert(merged.end(), kept.begin(), kept.end());
        }
        std::sort(merged.begin(), merged.end(), MarketOrder{});
        if (merged.size() > top) merged.resize(top);
    }

    // Materialize the head. Entries and their QualityVectors are reused
    // across rounds, so a steady-state round allocates nothing here.
    head.resize(merged.size());
    for (std::size_t r = 0; r < merged.size(); ++r) {
        const NodeId row = merged[r].node;
        ScoredBid& sb = head[r];
        sb.bid.node = row;
        sb.bid.quality.assign(frame.quality_row(row), frame.quality_row(row) + dims);
        sb.bid.payment = frame.payment(row);
        sb.score = merged[r].score;
    }
}

std::vector<std::size_t> ScoreAuctionMechanism::select(const std::vector<ScoredBid>& ranking,
                                                       stats::Rng& rng) const {
    std::vector<std::size_t> chosen;
    select_into(ranking, rng, chosen);
    return chosen;
}

void ScoreAuctionMechanism::select_into(const std::vector<ScoredBid>& ranking,
                                        stats::Rng& rng,
                                        std::vector<std::size_t>& chosen) const {
    const std::size_t want = std::min<std::size_t>(spec_.num_winners, ranking.size());
    chosen.clear();
    chosen.reserve(want);
    auto psi_for = [this](NodeId node) {
        if (spec_.psi_per_node.empty()) return spec_.psi;
        if (node >= spec_.psi_per_node.size())
            throw std::out_of_range(
                "ScoreAuctionMechanism: psi_per_node has "
                + std::to_string(spec_.psi_per_node.size()) + " entries but bidder NodeId "
                + std::to_string(node)
                + " is out of range; per-node psi is indexed by NodeId and must cover "
                  "every bidder");
        return spec_.psi_per_node[node];
    };
    if (spec_.psi >= 1.0 && spec_.psi_per_node.empty()) {
        for (std::size_t i = 0; i < want; ++i) chosen.push_back(i);
        return;
    }
    // Scratch keeps its capacity across rounds (allocation-free steady
    // state); per-thread so concurrent trials do not share flags.
    thread_local std::vector<std::uint8_t> taken;
    taken.assign(ranking.size(), 0);
    std::size_t passes = 0;
    while (chosen.size() < want && passes < kMaxPsiPasses) {
        for (std::size_t i = 0; i < ranking.size() && chosen.size() < want; ++i) {
            if (taken[i] != 0) continue;
            if (rng.bernoulli(psi_for(ranking[i].bid.node))) {
                taken[i] = 1;
                chosen.push_back(i);
            }
        }
        ++passes;
    }
    // Deterministic fill if psi was so small that the passes budget ran out.
    for (std::size_t i = 0; i < ranking.size() && chosen.size() < want; ++i) {
        if (taken[i] == 0) {
            taken[i] = 1;
            chosen.push_back(i);
        }
    }
}

double ScoreAuctionMechanism::payment_for(const ScoringRule& scoring,
                                          const std::vector<ScoredBid>& ranking,
                                          std::size_t winner_rank,
                                          double best_losing_score) const {
    const ScoredBid& winner = ranking[winner_rank];
    if (spec_.payment_rule == PaymentRule::first_price) {
        return winner.bid.payment;
    }
    // Second-score payment: pay the winner enough that its score would drop
    // to the best losing score, i.e. p = s(q) - S_loser. Never below its own
    // ask (IR for the winner).
    const double s_q = scoring.quality_score(winner.bid.quality);
    return std::max(winner.bid.payment, s_q - best_losing_score);
}

std::vector<Winner> ScoreAuctionMechanism::price(const ScoringRule& scoring,
                                                 const std::vector<ScoredBid>& ranking,
                                                 const std::vector<std::size_t>& chosen) const {
    std::vector<Winner> winners;
    price_into(scoring, ranking, chosen, winners);
    return winners;
}

void ScoreAuctionMechanism::price_into(const ScoringRule& scoring,
                                       const std::vector<ScoredBid>& ranking,
                                       const std::vector<std::size_t>& chosen,
                                       std::vector<Winner>& winners) const {
    // Best losing score for second-price payments: the highest-ranked bid
    // that was not selected; a reserve score of zero if everyone won.
    double best_losing_score = 0.0;
    if (spec_.payment_rule == PaymentRule::second_price) {
        thread_local std::vector<std::uint8_t> selected;
        selected.assign(ranking.size(), 0);
        for (const std::size_t i : chosen) selected[i] = 1;
        for (std::size_t i = 0; i < ranking.size(); ++i) {
            if (selected[i] == 0) {
                best_losing_score = ranking[i].score;
                break;
            }
        }
    }

    winners.clear();
    winners.reserve(chosen.size());
    double spent = 0.0;
    for (const std::size_t i : chosen) {
        const ScoredBid& sb = ranking[i];
        const double payment = payment_for(scoring, ranking, i, best_losing_score);
        if (spec_.budget > 0.0 && spent + payment > spec_.budget) {
            // Budget-feasible prefix in selection order; cheaper lower-score
            // bids are NOT pulled forward (that would break monotonicity and
            // with it incentive compatibility).
            break;
        }
        spent += payment;
        winners.push_back(Winner{sb.bid.node, sb.score, payment});
    }
}

// ---------------------------------------------------------------------------
// MechanismRegistry
// ---------------------------------------------------------------------------

struct MechanismRegistry::Impl {
    util::NamedRegistry<MechanismFactory> registry{"MechanismRegistry", "mechanism"};
};

namespace {

/// Built-in factory: the configurable score auction under a fixed display
/// name, with the headline knob pinned so e.g. "second_score" always prices
/// second-score no matter what the spec's payment_rule says.
MechanismFactory score_auction_factory(std::string name,
                                       void (*pin)(MechanismSpec&)) {
    return [name = std::move(name), pin](const MechanismSpec& spec) {
        MechanismSpec pinned = spec;
        if (pin != nullptr) pin(pinned);
        return std::make_unique<ScoreAuctionMechanism>(std::move(pinned), name);
    };
}

} // namespace

MechanismRegistry::MechanismRegistry() : impl_(std::make_shared<Impl>()) {
    // The four paper mechanisms. Each honours every other spec knob, so the
    // pre-registry knob combinations (psi + budget + second score) keep
    // composing bit-identically.
    impl_->registry.replace("first_score", score_auction_factory(
        "first_score", +[](MechanismSpec& s) { s.payment_rule = PaymentRule::first_price; }));
    impl_->registry.replace("second_score", score_auction_factory(
        "second_score",
        +[](MechanismSpec& s) { s.payment_rule = PaymentRule::second_price; }));
    impl_->registry.replace("psi_fmore", score_auction_factory("psi_fmore", nullptr));
    impl_->registry.replace("budget_feasible",
                            score_auction_factory("budget_feasible", nullptr));
    // The streaming marketplace's async-aware pricing: rank on the
    // latency-discounted score (latency_discount.hpp). A distinct engine
    // TYPE, so frame rounds route through the vector adapter and its
    // rank() override.
    impl_->registry.replace("latency_discounted", [](const MechanismSpec& spec) {
        return std::make_unique<LatencyDiscountedMechanism>(spec);
    });
}

MechanismRegistry& MechanismRegistry::instance() {
    static MechanismRegistry registry;
    return registry;
}

void MechanismRegistry::add(const std::string& name, MechanismFactory factory) {
    util::require_factory(factory, "MechanismRegistry", "add", name);
    impl_->registry.add(name, std::move(factory));
}

void MechanismRegistry::replace(const std::string& name, MechanismFactory factory) {
    util::require_factory(factory, "MechanismRegistry", "replace", name);
    impl_->registry.replace(name, std::move(factory));
}

void MechanismRegistry::remove(const std::string& name) { impl_->registry.remove(name); }

bool MechanismRegistry::contains(const std::string& name) const {
    return impl_->registry.contains(name);
}

std::vector<std::string> MechanismRegistry::names() const {
    return impl_->registry.names();
}

std::unique_ptr<Mechanism> MechanismRegistry::create(const std::string& name,
                                                     const MechanismSpec& spec) const {
    std::unique_ptr<Mechanism> mechanism = impl_->registry.get(name)(spec);
    if (!mechanism)
        throw std::logic_error("MechanismRegistry: factory for '" + name
                               + "' returned null");
    return mechanism;
}

std::string resolve_mechanism_name(const MechanismSpec& spec) {
    if (!spec.mechanism.empty()) return spec.mechanism;
    if (spec.latency_discount > 0.0) return "latency_discounted";
    if (spec.budget > 0.0) return "budget_feasible";
    if (spec.psi < 1.0 || !spec.psi_per_node.empty()) return "psi_fmore";
    if (spec.payment_rule == PaymentRule::second_price) return "second_score";
    return "first_score";
}

std::unique_ptr<Mechanism> make_mechanism(const MechanismSpec& spec) {
    return MechanismRegistry::instance().create(resolve_mechanism_name(spec), spec);
}

} // namespace fmore::auction
