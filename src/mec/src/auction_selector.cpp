#include "fmore/mec/auction_selector.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "fmore/util/thread_pool.hpp"

namespace fmore::mec {

namespace {

double resource_value(const ResourceState& r, ResourceDim dim) {
    switch (dim) {
        case ResourceDim::data_size: return r.data_size;
        case ResourceDim::category_proportion: return r.category_proportion;
        case ResourceDim::bandwidth: return r.bandwidth_mbps;
        case ResourceDim::cpu: return r.cpu_cores;
    }
    throw std::logic_error("AuctionSelector: unknown ResourceDim");
}

/// Nodes per parallel collect task (same granularity as the store's
/// evolve chunks).
constexpr std::size_t kCollectChunk = 4096;

/// Quality cells a quote block holds on the stack: kRowBlock rows of up
/// to four columns (one per ResourceDim). Wider layouts quote in shorter
/// blocks.
constexpr std::size_t kBlockCells = 4 * numeric::kRowBlock;

bool legacy_path_forced() {
    const char* env = std::getenv("FMORE_BID_PATH");
    return env != nullptr && std::string_view(env) == "legacy";
}

} // namespace

QualitySource::QualitySource(QualityLayout layout) : layout(std::move(layout)) {
    const QualityLayout& dims = this->layout;
    fn = [dims](const ResourceState& r) {
        auction::QualityVector q(dims.size());
        for (std::size_t d = 0; d < dims.size(); ++d) q[d] = resource_value(r, dims[d]);
        return q;
    };
}

QualitySource::QualitySource(QualityExtractor fn) : fn(std::move(fn)) {}

QualitySource data_category_extractor() {
    return QualitySource(
        QualityLayout{ResourceDim::data_size, ResourceDim::category_proportion});
}

QualitySource cpu_bandwidth_data_extractor() {
    return QualitySource(
        QualityLayout{ResourceDim::cpu, ResourceDim::bandwidth, ResourceDim::data_size});
}

AuctionSelector::AuctionSelector(MecPopulation& population,
                                 const auction::ScoringRule& scoring,
                                 const auction::EquilibriumStrategy& strategy,
                                 auction::WinnerDeterminationConfig wd_config,
                                 QualitySource source, std::size_t data_dimension,
                                 auction::PaymentMethod payment_method)
    : population_(population),
      scoring_(scoring),
      strategy_(strategy),
      wd_config_(std::move(wd_config)),
      layout_(std::move(source.layout)),
      extractor_(std::move(source.fn)),
      data_dimension_(data_dimension),
      payment_method_(payment_method) {
    if (!extractor_) throw std::invalid_argument("AuctionSelector: null extractor");
    if (!layout_.empty() && layout_.size() != strategy_.dimensions())
        throw std::logic_error("AuctionSelector: extractor/strategy dimension mismatch");
    fused_path_ = !layout_.empty() && !legacy_path_forced();
    strategy_scores_broadcast_rule_ = strategy_.scoring_rule() == &scoring_;
}

AuctionSelector::AuctionSelector(MecPopulation& population,
                                 const auction::ScoringRule& scoring,
                                 const auction::EquilibriumStrategy& strategy,
                                 auction::WinnerDeterminationConfig wd_config,
                                 QualityExtractor extractor, std::size_t data_dimension,
                                 auction::PaymentMethod payment_method)
    : AuctionSelector(population, scoring, strategy, std::move(wd_config),
                      QualitySource(std::move(extractor)), data_dimension,
                      payment_method) {}

void collect_bid_rows(const PopulationStore& store, std::size_t lo, std::size_t hi,
                      const QualityLayout& layout,
                      const auction::EquilibriumStrategy& strategy,
                      const auction::ScoringRule& scoring,
                      bool strategy_scores_broadcast_rule,
                      auction::PaymentMethod payment_method, const Blacklist& blacklist,
                      auction::BidFrame& frame, std::size_t frame_base,
                      std::vector<const double*>& columns, bool parallel) {
    const std::size_t dims = layout.size();
    const std::size_t scored_dims =
        strategy_scores_broadcast_rule ? dims : scoring.dimensions();
    if (dims == 0 || dims > kBlockCells || strategy.dimensions() != dims
        || scored_dims != dims)
        throw std::invalid_argument(
            "collect_bid_rows: layout has " + std::to_string(dims)
            + " columns (1 to " + std::to_string(kBlockCells) + " allowed), strategy "
            + std::to_string(strategy.dimensions()) + ", scoring rule "
            + std::to_string(scored_dims));
    const std::size_t block_rows = std::min(numeric::kRowBlock, kBlockCells / dims);
    // Column pointers resolved once per round; the chunk loop below then
    // touches only contiguous memory. Caller-owned (not a local
    // thread_local!) so pool workers see the populated buffer — lambdas do
    // not capture thread-storage variables, each thread would resolve its
    // own empty instance — and its capacity survives across rounds.
    columns.clear();
    for (const ResourceDim dim : layout) columns.push_back(store.column(dim).data());
    const std::vector<const double*>& cols = columns;
    const double* thetas = store.thetas().data();

    // Store rows [clo, chi) in blocks of up to kRowBlock rows, each quoted
    // through the row kernels (equilibrium.hpp, "Row kernels") off scratch
    // on this call's stack. Per row, the same steps as quality_into, the
    // cap clamp and quote_span: the equilibrium quality clipped to the
    // row's available columns, its sealed ask, and the aggregator score
    // S = s(q) - p in the frame's score column, so ranking streams one
    // double per row instead of re-reading N×d qualities. The quote's s(q)
    // doubles as the aggregator score only when the strategy was solved
    // against the selector's broadcast rule (always true for the trial
    // engines); otherwise the broadcast rule scores the row, so fused and
    // classic ranking agree. Banned rows are deactivated and otherwise
    // left untouched.
    const auto collect_rows = [&](std::size_t clo, std::size_t chi) {
        double q[kBlockCells] = {};
        double payment[numeric::kRowBlock] = {};
        double quoted_s[numeric::kRowBlock] = {};
        double broadcast_s[numeric::kRowBlock] = {};
        bool banned[numeric::kRowBlock] = {};
        for (std::size_t blo = clo; blo < chi; blo += block_rows) {
            const std::size_t n = std::min(block_rows, chi - blo);
            const std::size_t row0 = frame_base + (blo - lo);
            std::size_t live = 0;
            for (std::size_t r = 0; r < n; ++r) {
                banned[r] = blacklist.contains(store.node_offset() + blo + r);
                if (banned[r]) frame.set_active(row0 + r, false);
                live += banned[r] ? 0 : 1;
            }
            if (live == 0) continue;

            const double* theta = thetas + blo;
            strategy.quality_rows(theta, n, q);
            for (std::size_t d = 0; d < dims; ++d) {
                double* qd = q + d * n;
                const double* cap = cols[d] + blo;
                for (std::size_t r = 0; r < n; ++r) qd[r] = qd[r] > cap[r] ? cap[r] : qd[r];
            }
            strategy.quote_rows(q, n, theta, payment_method, payment, quoted_s);
            const double* s = quoted_s;
            if (!strategy_scores_broadcast_rule) {
                scoring.quality_score_rows(q, n, broadcast_s);
                s = broadcast_s;
            }
            for (std::size_t r = 0; r < n; ++r) {
                if (banned[r]) continue;
                double* out = frame.quality_row(row0 + r);
                for (std::size_t d = 0; d < dims; ++d) out[d] = q[d * n + r];
                frame.payment(row0 + r) = payment[r];
                frame.score(row0 + r) = s[r] - payment[r];
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

void AuctionSelector::collect_frame() {
    const PopulationStore& store = population_.store();
    frame_.reset(store.size(), layout_.size());
    collect_bid_rows(store, 0, store.size(), layout_, strategy_, scoring_,
                     strategy_scores_broadcast_rule_, payment_method_, blacklist_,
                     frame_, 0, columns_, /*parallel=*/true);
    frame_.set_scored(true);
}

void AuctionSelector::run_fused_round(std::size_t k, stats::Rng& rng) {
    collect_frame();
    // The mechanism is pure configuration — rebuild only when K changes
    // (in practice: once), not on every call like the classic path did.
    if (!mechanism_ || mechanism_k_ != k) {
        auction::WinnerDeterminationConfig wd = wd_config_;
        wd.num_winners = k;
        mechanism_ = auction::make_mechanism(wd);
        mechanism_k_ = k;
    }
    // The outcome-level virtual keeps custom mechanisms — including ones
    // that override run() wholesale — semantically exact on frame rounds.
    mechanism_->run_frame(scoring_, frame_, rng, scratch_, outcome_);
    last_bids_stale_ = true;
}

void AuctionSelector::run_classic_round(std::size_t k, stats::Rng& rng) {
    const PopulationStore& store = population_.store();
    last_bids_.clear();
    last_bids_.reserve(store.size());
    for (std::size_t i = 0; i < store.size(); ++i) {
        // Blacklisted defaulters are shut out of bid collection.
        if (blacklist_.contains(i)) continue;
        const auction::QualityVector available = extractor_(store.resources(i));
        auction::QualityVector q = strategy_.quality(store.theta(i));
        if (q.size() != available.size())
            throw std::logic_error("AuctionSelector: extractor/strategy dimension mismatch");
        for (std::size_t d = 0; d < q.size(); ++d) q[d] = std::min(q[d], available[d]);
        const double p = strategy_.payment_for(q, store.theta(i), payment_method_);
        last_bids_.push_back(auction::Bid{i, std::move(q), p});
    }
    auction::WinnerDeterminationConfig wd = wd_config_;
    wd.num_winners = k;
    const auction::WinnerDetermination determination(scoring_, wd);
    outcome_ = determination.run(last_bids_, rng);
    last_bids_stale_ = false;
}

const auction::AuctionOutcome& AuctionSelector::run_auction_round(std::size_t round,
                                                                  std::size_t k,
                                                                  stats::Rng& rng) {
    // Round 1 bids on the initial resource state; drift applies afterwards.
    if (round > 1) population_.evolve(rng);
    if (fused_path_) {
        run_fused_round(k, rng);
    } else {
        run_classic_round(k, rng);
    }
    return outcome_;
}

const std::vector<auction::Bid>& AuctionSelector::last_bids() const {
    if (last_bids_stale_) {
        frame_.to_bids(last_bids_);
        last_bids_stale_ = false;
    }
    return last_bids_;
}

double AuctionSelector::bid_quality(auction::NodeId node, std::size_t dim) const {
    // Fused rounds keep every bid addressable by NodeId in the frame; the
    // classic path resolves winners through the bid list like it always
    // did (see select()).
    return frame_.quality_row(node)[dim];
}

fl::SelectionRecord AuctionSelector::select(std::size_t round, std::size_t k,
                                            stats::Rng& rng) {
    (void)run_auction_round(round, k, rng);

    std::function<double(auction::NodeId)> promised;
    std::vector<std::size_t> bid_of_node;
    if (data_dimension_ != npos) {
        if (fused_path_) {
            promised = [this](auction::NodeId node) {
                return bid_quality(node, data_dimension_);
            };
        } else {
            bid_of_node.assign(population_.size(), npos);
            for (std::size_t i = 0; i < last_bids_.size(); ++i) {
                bid_of_node[last_bids_[i].node] = i;
            }
            promised = [this, &bid_of_node](auction::NodeId node) {
                return last_bids_[bid_of_node[node]].quality[data_dimension_];
            };
        }
    }
    return assemble_selection_record(outcome_, population_.size(), promised,
                                     compliance_, blacklist_, rng);
}

} // namespace fmore::mec
