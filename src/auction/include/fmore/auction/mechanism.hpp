#pragma once

/// @file mechanism.hpp
/// The open winner-determination seam: an abstract Mechanism (rank /
/// select / price over sealed bids) plus a string-keyed factory registry.
/// The paper's auction and its extensions (second-score payments, psi-FMore
/// probabilistic acceptance, the budget-feasible prefix rule) ship as
/// registered mechanisms; new variants — reserve prices, wireless-cellular
/// pricing (Le et al., arXiv:2009.10269) — plug in from any translation
/// unit via MechanismRegistry without touching this library.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fmore/auction/bid_frame.hpp"
#include "fmore/auction/scoring.hpp"
#include "fmore/auction/types.hpp"
#include "fmore/stats/rng.hpp"

namespace fmore::auction {

/// How exactly-tied scores are broken (the paper's "flip of a coin",
/// Section V.A). Both modes are fair coin flips; they differ in how the
/// flip is materialized and what that costs at scale:
///  - `shuffle` (the historical default): one Fisher-Yates shuffle of the
///    active bids per round; a bid's tie-break key is its shuffled
///    position. Exact, but inherently GLOBAL — every ranking site must see
///    the same O(N) permutation.
///  - `salted`: ONE generator draw per round (the tie salt); a bid's key is
///    the counter-derived hash of (salt, NodeId). Position-independent, so
///    S shards — in other threads, processes or machines — derive
///    identical keys from the 8-byte salt alone. This is what the
///    multi-process shard aggregator ships instead of a permutation.
/// Winners differ between the modes only where scores tie exactly; within
/// a mode every path (vector, fused frame, sharded) is bit-identical.
enum class TieBreak : std::uint8_t {
    shuffle,
    salted,
};

/// Parameter bag every registered mechanism is constructed from (the former
/// `WinnerDeterminationConfig`, which is now an alias of this type).
/// A mechanism reads the knobs it cares about and ignores the rest, so one
/// spec can drive any registry entry.
struct MechanismSpec {
    /// Registry key of the mechanism to build ("first_score",
    /// "second_score", "psi_fmore", "budget_feasible", or any custom
    /// registration). Empty = derive from the legacy knobs below, which is
    /// what keeps pre-registry call sites bit-identical
    /// (see `resolve_mechanism_name`).
    std::string mechanism;
    std::size_t num_winners = 20;  ///< K
    PaymentRule payment_rule = PaymentRule::first_price;
    /// psi-FMore acceptance probability. 1.0 reproduces plain FMore: nodes
    /// in descending score order are accepted deterministically. For
    /// psi < 1 each node is accepted with probability psi; scanning repeats
    /// over the remaining nodes until K are chosen (the construction behind
    /// the paper's Pr(psi) formula), so the winner set always reaches
    /// min(K, #bids) nodes.
    double psi = 1.0;
    /// Optional per-node acceptance probabilities, indexed by NodeId; when
    /// non-empty it overrides `psi` for listed nodes and every bidder's
    /// NodeId must be within range (out-of-range ids throw instead of
    /// silently falling back). The paper's conclusion leaves "whether the
    /// probability psi should be identical or distinct for each node" open —
    /// this knob implements the distinct variant.
    std::vector<double> psi_per_node;
    /// Aggregator budget B (extension; the paper's conclusion lists the
    /// budget constraint as future work). Winners are admitted in selection
    /// order only while the running payment total stays within B; 0 means
    /// unconstrained. Applies to the payments of the configured rule.
    double budget = 0.0;
    /// When true (the default) `rank` returns every bid in exact descending
    /// order — the Fig. 8 score board. When false the mechanism may stop
    /// ordering after the entries winner selection needs (top K, plus the
    /// best loser under second-score payments), an O(N log K) partial sort
    /// instead of O(N log N); the winner set is bit-identical either way.
    bool full_ranking = true;
    /// Coin-flip materialization for tied scores; `salted` makes the
    /// tie-break position-independent (see TieBreak), which the
    /// multi-process shard aggregator requires. Honoured by the built-in
    /// score-auction engine; custom mechanisms may ignore it.
    TieBreak tie_break = TieBreak::shuffle;
    /// Async-aware pricing (the "latency_discounted" registry entry):
    /// rank by S(q, p) - latency_discount * expected_latency_s[node], so a
    /// bid that will take longer to come back is worth less to the
    /// aggregator — the streaming marketplace's equilibrium-bid discount.
    /// 0 ranks on the undiscounted score; the plain score engine ignores
    /// both knobs.
    double latency_discount = 0.0;
    /// Expected per-node bid latency in seconds, indexed by NodeId (e.g.
    /// `mec::ClusterTimeModel::latency_factor` times the auction overhead).
    /// Nodes past the end of the table read as zero latency, so a partial
    /// table discounts only the nodes it covers.
    std::vector<double> expected_latency_s;
};

/// Abstract auction mechanism: how sealed bids become a ranking, a winner
/// set and payments. `run` is the template driver WinnerDetermination (and
/// anything else) calls; override the three stages independently or replace
/// `run` wholesale for mechanisms that do not decompose this way.
class Mechanism {
public:
    virtual ~Mechanism() = default;

    /// Registry key / display name of this mechanism.
    [[nodiscard]] virtual std::string name() const = 0;

    /// Order bids by descending score (coin-flip ties).
    [[nodiscard]] virtual std::vector<ScoredBid> rank(const ScoringRule& scoring,
                                                      const std::vector<Bid>& bids,
                                                      stats::Rng& rng) const = 0;

    /// Flat fast path of `rank`: score the frame's active rows and write
    /// the descending head into `head` — everything `select`/`price` need
    /// (the complete board when `full_ranking` or a psi scan demands it,
    /// else the top K(+1) segment). The contract is equivalence: winners
    /// and payments downstream are bit-identical to materializing the
    /// active rows with `BidFrame::to_bids` and calling `rank`, which is
    /// exactly what this default adapter does, so custom mechanisms work
    /// on frame-collected rounds unmodified. `ScoreAuctionMechanism`
    /// overrides it with a fused score + top-K pass that never builds the
    /// bid list: per-worker `BoundedTopK`s over parallel chunks, merged and
    /// sorted under `MarketOrder` — a strict total order, so the result is
    /// identical no matter how chunks land on workers. `scratch` and `head`
    /// are caller-owned and reused; after the first round the override
    /// allocates nothing.
    virtual void rank_frame(const ScoringRule& scoring, const BidFrame& frame,
                            stats::Rng& rng, RankScratch& scratch,
                            std::vector<ScoredBid>& head) const;

    /// Indices (into the ranking) of the selected winners, in selection
    /// order.
    [[nodiscard]] virtual std::vector<std::size_t>
    select(const std::vector<ScoredBid>& ranking, stats::Rng& rng) const = 0;

    /// Turn selected ranking entries into priced winners (may admit fewer
    /// than selected, e.g. under a budget).
    [[nodiscard]] virtual std::vector<Winner>
    price(const ScoringRule& scoring, const std::vector<ScoredBid>& ranking,
          const std::vector<std::size_t>& chosen) const = 0;

    /// Buffer-reusing twins of `select`/`price` for allocation-free round
    /// loops: results land in the caller-owned vectors (capacity reused
    /// across rounds). Defaults delegate to the returning versions, so
    /// custom mechanisms stay correct; the built-in engine overrides them
    /// to write in place.
    virtual void select_into(const std::vector<ScoredBid>& ranking, stats::Rng& rng,
                             std::vector<std::size_t>& chosen) const {
        chosen = select(ranking, rng);
    }
    virtual void price_into(const ScoringRule& scoring,
                            const std::vector<ScoredBid>& ranking,
                            const std::vector<std::size_t>& chosen,
                            std::vector<Winner>& winners) const {
        winners = price(scoring, ranking, chosen);
    }

    /// rank -> select -> price. Virtual so a mechanism with entangled
    /// stages can take over the whole round.
    [[nodiscard]] virtual AuctionOutcome run(const ScoringRule& scoring,
                                             const std::vector<Bid>& bids,
                                             stats::Rng& rng) const;

    /// Frame twin of `run`, writing into a caller-reused outcome. The
    /// default materializes the active rows and calls `run`, so a custom
    /// mechanism keeps its EXACT semantics on frame-collected rounds —
    /// including one that overrides `run` wholesale to entangle its
    /// stages. The built-in engine overrides this with the allocation-free
    /// rank_frame -> select_into -> price_into composition.
    virtual void run_frame(const ScoringRule& scoring, const BidFrame& frame,
                           stats::Rng& rng, RankScratch& scratch,
                           AuctionOutcome& outcome) const {
        frame.to_bids(scratch.bids);
        outcome = run(scoring, scratch.bids, rng);
    }
};

/// The configurable score-auction family behind all four built-in registry
/// entries: descending-score ranking with coin-flip ties (Section V.A),
/// top-K or psi-probabilistic selection (Section III.C), first- or
/// second-score payments and the budget-feasible prefix rule. Custom
/// mechanisms that only tweak one stage can subclass this instead of
/// Mechanism and inherit the rest.
class ScoreAuctionMechanism : public Mechanism {
public:
    /// Validates the spec: K >= 1; psi and every psi_per_node entry finite
    /// and in (0, 1]; budget finite and >= 0.
    /// @throws std::invalid_argument with the offending knob spelled out
    explicit ScoreAuctionMechanism(MechanismSpec spec, std::string name = {});

    [[nodiscard]] std::string name() const override;
    [[nodiscard]] std::vector<ScoredBid> rank(const ScoringRule& scoring,
                                              const std::vector<Bid>& bids,
                                              stats::Rng& rng) const override;
    void rank_frame(const ScoringRule& scoring, const BidFrame& frame, stats::Rng& rng,
                    RankScratch& scratch, std::vector<ScoredBid>& head) const override;
    [[nodiscard]] std::vector<std::size_t>
    select(const std::vector<ScoredBid>& ranking, stats::Rng& rng) const override;
    [[nodiscard]] std::vector<Winner>
    price(const ScoringRule& scoring, const std::vector<ScoredBid>& ranking,
          const std::vector<std::size_t>& chosen) const override;
    void select_into(const std::vector<ScoredBid>& ranking, stats::Rng& rng,
                     std::vector<std::size_t>& chosen) const override;
    void price_into(const ScoringRule& scoring, const std::vector<ScoredBid>& ranking,
                    const std::vector<std::size_t>& chosen,
                    std::vector<Winner>& winners) const override;
    void run_frame(const ScoringRule& scoring, const BidFrame& frame, stats::Rng& rng,
                   RankScratch& scratch, AuctionOutcome& outcome) const override;

    [[nodiscard]] const MechanismSpec& spec() const { return spec_; }

    /// How much of the descending board this spec's selection actually
    /// needs out of `active` bids: everything when `full_ranking` or a psi
    /// scan walks the whole board, else top K (+1 for the second-score
    /// best-loser). Shared by `rank`, `rank_frame` AND the sharded
    /// coordinator — one rule, so merged shard heads truncate at exactly
    /// the monolithic cut.
    [[nodiscard]] std::size_t ranking_cutoff(std::size_t active) const;

protected:
    /// The score `rank` orders a bid by: S(q, p) here. A pricing rule that
    /// only transforms the score (the latency discount) overrides this and
    /// inherits the whole ranking.
    [[nodiscard]] virtual double bid_score(const ScoringRule& scoring, const Bid& bid) const {
        return scoring.score(bid);
    }

    /// Payment of one winner under the configured rule (first-score pays
    /// the ask; second-score pays s(q) - best losing score, floored at the
    /// ask for individual rationality).
    [[nodiscard]] double payment_for(const ScoringRule& scoring,
                                     const std::vector<ScoredBid>& ranking,
                                     std::size_t winner_rank,
                                     double best_losing_score) const;

    MechanismSpec spec_;
    std::string name_;
};

/// Builds a Mechanism from a spec.
using MechanismFactory = std::function<std::unique_ptr<Mechanism>(const MechanismSpec&)>;

/// Process-wide string-keyed mechanism factory registry. The four paper
/// mechanisms are registered on first use; libraries, benches and tests add
/// their own with `add` — no core edits required. All methods are
/// thread-safe.
class MechanismRegistry {
public:
    [[nodiscard]] static MechanismRegistry& instance();

    /// Register `factory` under `name`.
    /// @throws std::invalid_argument if the name is empty or already taken
    ///         (use `replace` to overwrite deliberately)
    void add(const std::string& name, MechanismFactory factory);
    /// Register or overwrite without the duplicate check.
    void replace(const std::string& name, MechanismFactory factory);
    /// Remove a registration (no-op when absent); built-ins come back on
    /// the next registry restart only, so tests should re-add what they
    /// remove.
    void remove(const std::string& name);

    [[nodiscard]] bool contains(const std::string& name) const;
    /// All registered names, sorted.
    [[nodiscard]] std::vector<std::string> names() const;

    /// Instantiate the mechanism registered under `name`.
    /// @throws std::invalid_argument for unknown names, listing what is
    ///         registered so the typo is obvious
    [[nodiscard]] std::unique_ptr<Mechanism> create(const std::string& name,
                                                    const MechanismSpec& spec) const;

private:
    MechanismRegistry();
    struct Impl;
    std::shared_ptr<Impl> impl_;
};

/// The registry key the legacy knobs imply, in extension-priority order:
/// latency_discount > 0 -> "latency_discounted"; budget > 0 ->
/// "budget_feasible"; psi < 1 or per-node psi -> "psi_fmore"; second-score
/// payments -> "second_score"; else "first_score". Each built-in honours
/// *all* spec knobs (they are views onto the same configurable engine), so
/// combined knobs keep composing exactly as before the registry existed.
[[nodiscard]] std::string resolve_mechanism_name(const MechanismSpec& spec);

/// One-call construction: `spec.mechanism` when set, otherwise
/// `resolve_mechanism_name(spec)`, resolved through the registry.
[[nodiscard]] std::unique_ptr<Mechanism> make_mechanism(const MechanismSpec& spec);

} // namespace fmore::auction
