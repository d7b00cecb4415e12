#include "fmore/mec/auction_selector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "fmore/mec/stream_round.hpp"
#include "fmore/mec/wire_format.hpp"
#include "fmore/util/thread_pool.hpp"

namespace fmore::mec {

namespace {

/// Nodes per parallel collect task (same granularity as the store's
/// evolve chunks).
constexpr std::size_t kCollectChunk = 4096;

/// Quality cells a quote block holds on the stack: kRowBlock rows of up
/// to four columns (one per ResourceDim). Wider layouts quote in shorter
/// blocks.
constexpr std::size_t kBlockCells = 4 * numeric::kRowBlock;

/// One quote block, on its caller's stack. Qualities are column-major, as
/// the row kernels take them: dimension d of block row r is q[d * n + r].
struct QuoteBlock {
    double q[kBlockCells] = {};
    double payment[numeric::kRowBlock] = {};  ///< c(q, theta), then the ask p once priced
    double score[numeric::kRowBlock] = {};    ///< the aggregator's s(q), then S = s(q) - p
    /// The strategy's s(q), the markup's argument, when another rule
    /// broadcasts (`score` then holds that rule's).
    double quote_score[numeric::kRowBlock] = {};
    bool banned[numeric::kRowBlock] = {};
};

/// The market's quote of store rows, in blocks through the row kernels
/// (equilibrium.hpp, "Row kernels"); the frame collect and the head pass
/// both quote through it, so their rows agree bit for bit. Per row, the
/// same steps as quality_into, the cap clamp and quote_span: the
/// equilibrium quality clipped to the row's available columns, its sealed
/// ask, and the aggregator score S = s(q) - p. The quote's s(q) doubles as
/// the aggregator score only when the strategy was solved against the
/// selector's broadcast rule (always true for the trial engines); otherwise
/// the broadcast rule scores the row, so fused and classic ranking agree.
/// A quote runs in two halves, `cost` and `price`, split at the ask, so the
/// head pass can drop a block on its at-cost scores. Pool threads share one
/// quoter: every per-call value lives in the caller's block.
class BlockQuoter {
public:
    /// @throws std::invalid_argument when `check_bid_layout` rejects the
    ///         layout, strategy and rule
    BlockQuoter(const PopulationStore& store, const QualityLayout& layout,
                const auction::EquilibriumStrategy& strategy,
                const auction::ScoringRule& scoring, bool strategy_scores_broadcast_rule,
                auction::PaymentMethod payment_method, const Blacklist& blacklist,
                std::vector<const double*>& columns)
        : store_(store),
          strategy_(strategy),
          scoring_(scoring),
          strategy_scores_broadcast_rule_(strategy_scores_broadcast_rule),
          payment_method_(payment_method),
          blacklist_(blacklist),
          columns_(columns) {
        check_bid_layout(layout, strategy, scoring, strategy_scores_broadcast_rule);
        block_rows_ = std::min(numeric::kRowBlock, kBlockCells / layout.size());
        // Column pointers resolved once per round; the block loop then
        // touches only contiguous memory. Caller-owned (not a local
        // thread_local!) so pool workers see the populated buffer — lambdas
        // do not capture thread-storage variables, each thread would resolve
        // its own empty instance — and its capacity survives across rounds.
        columns.clear();
        for (const ResourceDim dim : layout) columns.push_back(store.column(dim).data());
    }

    /// Rows per block: kRowBlock, fewer for layouts wider than four columns.
    [[nodiscard]] std::size_t block_rows() const { return block_rows_; }

    /// The first half of the quote of store rows [blo, blo + n),
    /// n <= block_rows(): flag the banned rows (blacklist lookups by GLOBAL
    /// id, `store.node_offset() + row`, made only when the blacklist's span
    /// meets the block) and, unless every row is banned, write the clipped
    /// quality, c(q, theta) into `payment` and the aggregator's s(q) into
    /// `score`. Returns the rows not banned. A banned row's cells hold no
    /// bid.
    std::size_t cost(std::size_t blo, std::size_t n, QuoteBlock& b) const {
        const std::size_t first = store_.node_offset() + blo;
        std::size_t live = n;
        if (blacklist_.may_contain(first, first + n)) {
            for (std::size_t r = 0; r < n; ++r) {
                b.banned[r] = blacklist_.contains(first + r);
                live -= b.banned[r] ? 1 : 0;
            }
            if (live == 0) return 0;
        } else {
            std::fill_n(b.banned, n, false);
        }

        const double* theta = store_.thetas().data() + blo;
        strategy_.quality_rows(theta, n, b.q);
        for (std::size_t d = 0; d < columns_.size(); ++d) {
            double* qd = b.q + d * n;
            const double* cap = columns_[d] + blo;
            for (std::size_t r = 0; r < n; ++r) qd[r] = qd[r] > cap[r] ? cap[r] : qd[r];
        }
        strategy_.cost_score_rows(b.q, n, theta, b.payment,
                                  strategy_scores_broadcast_rule_ ? b.score : b.quote_score);
        if (!strategy_scores_broadcast_rule_) scoring_.quality_score_rows(b.q, n, b.score);
        return live;
    }

    /// The second half, over a block `cost` filled: the ask into `payment`
    /// and the aggregator score S = s(q) - p into `score`.
    void price(std::size_t n, QuoteBlock& b) const {
        strategy_.markup_rows(strategy_scores_broadcast_rule_ ? b.score : b.quote_score, n,
                              payment_method_, b.payment);
        for (std::size_t r = 0; r < n; ++r) b.score[r] -= b.payment[r];
    }

    /// Both halves.
    void quote(std::size_t blo, std::size_t n, QuoteBlock& b) const {
        if (cost(blo, n, b) > 0) price(n, b);
    }

private:
    const PopulationStore& store_;
    const auction::EquilibriumStrategy& strategy_;
    const auction::ScoringRule& scoring_;
    bool strategy_scores_broadcast_rule_;
    auction::PaymentMethod payment_method_;
    const Blacklist& blacklist_;
    const std::vector<const double*>& columns_;
    std::size_t block_rows_ = 0;
};

/// True when `head` rejects every live row of a block `BlockQuoter::cost`
/// filled at the row's at-cost bound s - c. Without banned rows the test is
/// one vector loop.
bool rejects_at_cost(const auction::StreamingHeadMerge& head, const QuoteBlock& b,
                     std::size_t n, bool any_banned) {
    long enters = 0;
    if (any_banned) {
        for (std::size_t r = 0; r < n; ++r)
            enters |= !b.banned[r] && !head.rejects_score(b.score[r] - b.payment[r]);
    } else {
        for (std::size_t r = 0; r < n; ++r)
            enters |= !head.rejects_score(b.score[r] - b.payment[r]);
    }
    return enters == 0;
}

} // namespace

QualityLayout data_category_extractor() {
    return {ResourceDim::data_size, ResourceDim::category_proportion};
}

QualityLayout cpu_bandwidth_data_extractor() {
    return {ResourceDim::cpu, ResourceDim::bandwidth, ResourceDim::data_size};
}

MarketSelector::MarketSelector(MecPopulation& population,
                               const auction::ScoringRule& scoring,
                               const auction::EquilibriumStrategy& strategy,
                               auction::WinnerDeterminationConfig wd_config,
                               QualityLayout layout, std::size_t data_dimension,
                               auction::PaymentMethod payment_method)
    : population_(population),
      scoring_(scoring),
      strategy_(strategy),
      wd_config_(std::move(wd_config)),
      layout_(std::move(layout)),
      data_dimension_(data_dimension),
      payment_method_(payment_method),
      strategy_scores_broadcast_rule_(strategy_.scoring_rule() == &scoring_) {
    check_bid_layout(layout_, strategy_, scoring_, strategy_scores_broadcast_rule_);
}

void check_bid_layout(const QualityLayout& layout,
                      const auction::EquilibriumStrategy& strategy,
                      const auction::ScoringRule& scoring,
                      bool strategy_scores_broadcast_rule) {
    const std::size_t dims = layout.size();
    const std::size_t scored_dims =
        strategy_scores_broadcast_rule ? dims : scoring.dimensions();
    if (dims == 0 || dims > kBlockCells || strategy.dimensions() != dims
        || scored_dims != dims)
        throw std::invalid_argument(
            "bid layout has " + std::to_string(dims) + " columns (1 to "
            + std::to_string(kBlockCells) + " allowed), strategy "
            + std::to_string(strategy.dimensions()) + ", scoring rule "
            + std::to_string(scored_dims));
}

void collect_bid_rows(const PopulationStore& store, std::size_t lo, std::size_t hi,
                      const QualityLayout& layout,
                      const auction::EquilibriumStrategy& strategy,
                      const auction::ScoringRule& scoring,
                      bool strategy_scores_broadcast_rule,
                      auction::PaymentMethod payment_method, const Blacklist& blacklist,
                      auction::BidFrame& frame, std::size_t frame_base,
                      std::vector<const double*>& columns, bool parallel) {
    const BlockQuoter quoter(store, layout, strategy, scoring, strategy_scores_broadcast_rule,
                             payment_method, blacklist, columns);
    const std::size_t dims = layout.size();

    // Store rows [clo, chi) into frame rows `frame_base + (i - lo)`, the
    // aggregator score in the frame's score column, so ranking streams one
    // double per row instead of re-reading N×d qualities. Banned rows are
    // deactivated and otherwise left untouched.
    const auto collect_rows = [&](std::size_t clo, std::size_t chi) {
        QuoteBlock b;
        for (std::size_t blo = clo; blo < chi; blo += quoter.block_rows()) {
            const std::size_t n = std::min(quoter.block_rows(), chi - blo);
            const std::size_t row0 = frame_base + (blo - lo);
            quoter.quote(blo, n, b);
            for (std::size_t r = 0; r < n; ++r) {
                if (b.banned[r]) {
                    frame.set_active(row0 + r, false);
                    continue;
                }
                double* out = frame.quality_row(row0 + r);
                for (std::size_t d = 0; d < dims; ++d) out[d] = b.q[d * n + r];
                frame.payment(row0 + r) = b.payment[r];
                frame.score(row0 + r) = b.score[r];
            }
        }
    };

    const std::size_t n = hi - lo;
    const std::size_t chunks = (n + kCollectChunk - 1) / kCollectChunk;
    const std::size_t workers =
        (!parallel || chunks <= 1) ? 1 : util::resolve_round_threads(0, chunks);
    if (workers <= 1) {
        collect_rows(lo, hi);
    } else {
        util::ThreadPool::shared().parallel_for(
            chunks, workers - 1, [&](std::size_t, std::size_t chunk) {
                const std::size_t clo = lo + chunk * kCollectChunk;
                collect_rows(clo, std::min(hi, clo + kCollectChunk));
            });
    }
}

namespace {

/// `collect_head_rows`' pass over `store` rows [lo, hi) through `quoter`,
/// each block of rows first drifted by `drift` when it is set.
std::size_t head_pass(const PopulationStore& store, std::size_t lo, std::size_t hi,
                      const PopulationStore::RowDrift* drift, const BlockQuoter& quoter,
                      std::size_t dims, const auction::EquilibriumStrategy& strategy,
                      auction::PaymentMethod payment_method, const wire::StreamExtra* cut,
                      const auction::TieKeys& keys, std::size_t limit,
                      auction::StreamingHeadMerge& head, auction::ShardHead& out) {
    // With no ask below cost, fl(c + m) >= c, so a row's score
    // fl(s - fl(c + m)) is at most its at-cost bound fl(s - c) (rounding is
    // monotone, infinities included). A block whose live rows' bounds the
    // head all rejects holds no row the head would keep; a NaN bound is
    // never rejected.
    const bool bound_by_cost = strategy.ask_covers_cost(payment_method);
    std::size_t priced = 0;
    head.open(dims, std::min(limit, hi - lo));
    QuoteBlock b;
    for (std::size_t blo = lo; blo < hi; blo += quoter.block_rows()) {
        const std::size_t n = std::min(quoter.block_rows(), hi - blo);
        // The block's drift lands just before its quote reads it, while its
        // rows are still in cache; banned rows drift too.
        if (drift != nullptr) (*drift)(blo, blo + n);
        const std::size_t live = quoter.cost(blo, n, b);
        if (live == 0 || (bound_by_cost && rejects_at_cost(head, b, n, live < n))) continue;
        quoter.price(n, b);
        priced += n;
        for (std::size_t r = 0; r < n; ++r) {
            // Ties with the worst kept score, and NaN, pass this test and
            // take the full comparison, so the head is the one an eager
            // loop over every row's key keeps.
            if (b.banned[r] || head.rejects_score(b.score[r])) continue;
            const auction::NodeId global = store.node_offset() + blo + r;
            if (cut != nullptr
                && !stream_arrived(
                    stream_arrival_s(cut->arrival_salt, global, cut->horizon_s), global,
                    cut->close_time_s, cut->boundary_node))
                continue;
            double* slot =
                head.admit_row({global, b.score[r], keys.key(global), b.payment[r]});
            if (slot == nullptr) continue;
            for (std::size_t d = 0; d < dims; ++d) slot[d] = b.q[d * n + r];
        }
    }
    head.finish(out);
    return priced;
}

} // namespace

std::size_t collect_head_rows(const PopulationStore& store, std::size_t lo, std::size_t hi,
                              const QualityLayout& layout,
                              const auction::EquilibriumStrategy& strategy,
                              const auction::ScoringRule& scoring,
                              bool strategy_scores_broadcast_rule,
                              auction::PaymentMethod payment_method,
                              const Blacklist& blacklist, const wire::StreamExtra* cut,
                              const auction::TieKeys& keys, std::size_t limit,
                              std::vector<const double*>& columns,
                              auction::StreamingHeadMerge& head, auction::ShardHead& out) {
    if (lo > hi || hi > store.size())
        throw std::invalid_argument("collect_head_rows: rows [" + std::to_string(lo) + ", "
                                    + std::to_string(hi) + ") outside a "
                                    + std::to_string(store.size()) + "-row store");
    const BlockQuoter quoter(store, layout, strategy, scoring, strategy_scores_broadcast_rule,
                             payment_method, blacklist, columns);
    return head_pass(store, lo, hi, nullptr, quoter, layout.size(), strategy, payment_method,
                     cut, keys, limit, head, out);
}

std::size_t collect_head_rows(PopulationStore& store, std::uint64_t drift_salt,
                              const QualityLayout& layout,
                              const auction::EquilibriumStrategy& strategy,
                              const auction::ScoringRule& scoring,
                              bool strategy_scores_broadcast_rule,
                              auction::PaymentMethod payment_method,
                              const Blacklist& blacklist, const wire::StreamExtra* cut,
                              const auction::TieKeys& keys, std::size_t limit,
                              std::vector<const double*>& columns,
                              auction::StreamingHeadMerge& head, auction::ShardHead& out) {
    // The quoter checks the layout before the drift records its salt.
    const BlockQuoter quoter(store, layout, strategy, scoring, strategy_scores_broadcast_rule,
                             payment_method, blacklist, columns);
    const PopulationStore::RowDrift drift = store.begin_drift(drift_salt);
    return head_pass(store, 0, store.size(), &drift, quoter, layout.size(), strategy,
                     payment_method, cut, keys, limit, head, out);
}

fl::SelectionRecord assemble_selection_record(
    const auction::AuctionOutcome& outcome, std::size_t population_size,
    const std::function<double(auction::NodeId)>& promised_quality,
    const ComplianceSpec& compliance, Blacklist& blacklist, stats::Rng& rng) {
    fl::SelectionRecord record;
    record.all_scores.reserve(outcome.ranking.size());
    record.scores_by_node.assign(population_size, 0.0);
    for (const auction::ScoredBid& sb : outcome.ranking) {
        record.all_scores.push_back(sb.score);
        record.scores_by_node[sb.bid.node] = sb.score;
    }
    for (const auction::Winner& w : outcome.winners) {
        fl::SelectedClient sel;
        sel.client = w.node;
        sel.payment = w.payment;
        sel.score = w.score;
        if (promised_quality) {
            const std::size_t promised = static_cast<std::size_t>(
                std::max(1.0, std::floor(promised_quality(w.node))));
            // Contract compliance: defectors deliver less than they bid and
            // are banned from future rounds once the shortfall is observed.
            const ComplianceOutcome outcome_c = roll_compliance(compliance, promised, rng);
            if (outcome_c.defected) blacklist.ban(w.node);
            sel.train_samples = outcome_c.delivered_samples;
        }
        record.selected.push_back(sel);
    }
    return record;
}

void MarketSelector::save_checkpoint(fl::SelectorCheckpoint& ckpt) const {
    for (std::size_t node : blacklist_.banned_ids()) ckpt.banned_nodes.push_back(node);
}

void MarketSelector::restore_checkpoint(const fl::SelectorCheckpoint& ckpt) {
    restore_bans(blacklist_, ckpt.banned_nodes, node_ids());
}

const std::shared_ptr<const auction::Mechanism>& MarketSelector::mechanism_for(std::size_t k) {
    if (!mechanism_ || mechanism_k_ != k) {
        auction::WinnerDeterminationConfig wd = wd_config_;
        wd.num_winners = k;
        mechanism_ = auction::make_mechanism(wd);
        mechanism_k_ = k;
    }
    return mechanism_;
}

void MarketSelector::collect_frame() {
    const PopulationStore& store = population_.store();
    frame_.reset(node_ids(), layout_.size());
    for (std::size_t id = 0; id < store.node_offset(); ++id) frame_.set_active(id, false);
    collect_bid_rows(store, 0, store.size(), layout_, strategy_, scoring_,
                     strategy_scores_broadcast_rule_, payment_method_, blacklist_, frame_,
                     store.node_offset(), columns_, /*parallel=*/true);
    frame_.set_scored(true);
}

fl::SelectionRecord MarketSelector::select(std::size_t round, std::size_t k,
                                           stats::Rng& rng) {
    const auction::AuctionOutcome& outcome = run_auction_round(round, k, rng);
    std::function<double(auction::NodeId)> promised;
    if (data_dimension_ != npos) {
        promised = [this](auction::NodeId node) {
            return winner_quality(node)[data_dimension_];
        };
    }
    fl::SelectionRecord record = assemble_selection_record(outcome, node_ids(), promised,
                                                           compliance_, blacklist_, rng);
    annotate(record);
    return record;
}

AuctionSelector::AuctionSelector(MecPopulation& population,
                                 const auction::ScoringRule& scoring,
                                 const auction::EquilibriumStrategy& strategy,
                                 auction::WinnerDeterminationConfig wd_config,
                                 QualityLayout layout, std::size_t data_dimension,
                                 auction::PaymentMethod payment_method)
    : MarketSelector(population, scoring, strategy, std::move(wd_config), std::move(layout),
                     data_dimension, payment_method) {}

const auction::AuctionOutcome& AuctionSelector::run_auction_round(std::size_t round,
                                                                  std::size_t k,
                                                                  stats::Rng& rng) {
    // Round 1 bids on the initial resource state; drift applies afterwards.
    if (round > 1) population_.evolve(rng);
    collect_frame();
    // The outcome-level virtual keeps custom mechanisms — including ones
    // that override run() wholesale — semantically exact on frame rounds.
    mechanism_for(k)->run_frame(scoring_, frame_, rng, scratch_, outcome_);
    last_bids_stale_ = true;
    return outcome_;
}

const std::vector<auction::Bid>& AuctionSelector::last_bids() const {
    if (last_bids_stale_) {
        frame_.to_bids(last_bids_);
        last_bids_stale_ = false;
    }
    return last_bids_;
}

} // namespace fmore::mec
