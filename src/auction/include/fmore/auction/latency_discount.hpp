#pragma once

/// @file latency_discount.hpp
/// The async-aware pricing rule of the streaming marketplace: equilibrium
/// bids are ranked by their score DISCOUNTED by expected return latency,
/// S'(q, p) = S(q, p) - lambda * E[latency_node]. A node whose update will
/// come back late is worth less to an aggregator closing rounds on a
/// deadline — the utility trade-off the paper's wall-clock experiments
/// (Section V.C) surface and the semi-sync/async rounds of the timing layer
/// act on. Registered as the "latency_discounted" mechanism; selection and
/// payment stages (top-K / psi, first-/second-score, budget prefix) are
/// inherited unchanged, so the discount composes with every other spec
/// knob. Under second-score payments the winner pays against the best
/// losing DISCOUNTED score: the clearing price already nets out the
/// latency penalty.

#include <vector>

#include "fmore/auction/mechanism.hpp"

namespace fmore::auction {

/// Score-auction engine whose ranking stage subtracts
/// `spec.latency_discount * spec.expected_latency_s[node]` from each bid's
/// score before ordering (missing table entries read as zero latency).
/// Only the score changes: the base `rank` orders the discounted scores.
/// A distinct type from the base engine, so the fused frame lanes route it
/// through the vector adapter and the discount is never bypassed. The
/// recorded ScoredBid::score is the discounted value: it is what the
/// market ranked and (under second-score) priced against.
class LatencyDiscountedMechanism final : public ScoreAuctionMechanism {
public:
    /// Validates the base spec plus: latency_discount finite and >= 0,
    /// every expected_latency_s entry finite and >= 0.
    /// @throws std::invalid_argument with the offending knob spelled out
    explicit LatencyDiscountedMechanism(MechanismSpec spec);

protected:
    /// S(q, p) - latency_discount * expected latency of the bid's node.
    [[nodiscard]] double bid_score(const ScoringRule& scoring,
                                   const Bid& bid) const override {
        return scoring.score(bid) - spec_.latency_discount * latency_of(bid.node);
    }

private:
    [[nodiscard]] double latency_of(NodeId node) const {
        return node < spec_.expected_latency_s.size() ? spec_.expected_latency_s[node]
                                                      : 0.0;
    }
};

} // namespace fmore::auction
