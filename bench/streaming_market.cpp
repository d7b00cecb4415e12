// streaming_market: the service-level ledger for the streaming auction.
// Where scale_round times the batch round shapes, this bench runs the
// long-lived ingestion service at N in {10k, 100k, 1M}: bids offered one
// at a time in shuffled arrival orders, the running top-K folded
// incrementally, the round closed and priced. Per N it records
//
//   - sustained ingestion throughput (bids/sec through `offer`),
//   - close latency p50/p95/p99 — the wall time from the close trigger to
//     the finalized outcome, which is O(K log K), not O(N), because the
//     ingestion already did the ranking,
//   - the streaming-vs-batch overhead ratio (ingest+close over one batch
//     `run_frame` on the same frame, both single-threaded, so the ratio
//     transfers across runners),
//   - bit-identity of every streaming close against the batch pass, AND of
//     the S=8 `StreamingHeadMerge` against `merge_heads`,
//   - the quorum-vs-deadline close mix under Poisson traffic tuned so the
//     two triggers race at even odds.
//
// A second leg races the adaptive quorum controller
// (`timing.adaptive_quorum`) against a fixed quorum over identical Poisson
// traffic, every round closed by `close_round` — the recorded close-time
// improvement and the byte-identity of the quorum schedule across two
// replays are what CI gates on.
//
// Results land in the `streaming` and `streaming_adaptive` sections of
// BENCH_scale.json, spliced section-bounded via util/json_ledger.hpp (each
// section replaced in place wherever it sits, so the co-owning benches can
// run in any order; a standalone file is written when the target does not
// exist yet).
//
//   streaming_market [--smoke] [--out path.json] [--check committed.json]
//
// --smoke shrinks the grid to {10k, 100k} and the round counts (CI).
// --check compares fresh measurements against a committed ledger: exit 1
// if the streaming section or its N=1M row is missing, any bit-identity
// flag is false, or the overhead ratio regressed by more than
// FMORE_SCALE_TOLERANCE (default 0.20 = 20%).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fmore/auction/bid_frame.hpp"
#include "fmore/auction/mechanism.hpp"
#include "fmore/auction/scoring.hpp"
#include "fmore/auction/shard_merge.hpp"
#include "fmore/auction/streaming_market.hpp"
#include "fmore/fl/adaptive_quorum.hpp"
#include "fmore/mec/arrival_model.hpp"
#include "fmore/stats/normalizer.hpp"
#include "fmore/stats/rng.hpp"
#include "fmore/util/json_ledger.hpp"

namespace {

using namespace fmore;
using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start) {
    return std::chrono::duration<double>(clock_type::now() - start).count();
}

void set_env(const char* key, const char* value) {
    if (value == nullptr) ::unsetenv(key);
    else ::setenv(key, value, 1);
}

/// RAII env override (same shape as scale_round's): the overhead ratio is
/// measured single-threaded on both sides, so it is machine-relative.
class ScopedEnv {
public:
    ScopedEnv(const char* key, const char* value) : key_(key) {
        const char* previous = std::getenv(key);
        had_previous_ = previous != nullptr;
        if (had_previous_) previous_ = previous;
        set_env(key, value);
    }
    ~ScopedEnv() { set_env(key_, had_previous_ ? previous_.c_str() : nullptr); }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

private:
    const char* key_;
    bool had_previous_ = false;
    std::string previous_;
};

constexpr std::size_t kWinners = 32;
constexpr double kDataHi = 150.0;
constexpr std::size_t kShards = 8; ///< same shard count as scale_round

/// The simulator's scoring (Section V.A) over (data size, diversity).
const auction::ScaledProductScoring& scoring() {
    static const std::vector<stats::MinMaxNormalizer> norms = [] {
        std::vector<stats::MinMaxNormalizer> n;
        n.emplace_back(0.0, kDataHi);
        n.emplace_back(0.0, 1.0);
        return n;
    }();
    static const auction::ScaledProductScoring rule(25.0, 2, norms);
    return rule;
}

/// A fully scored random frame — every row active, the score column holding
/// score_span, which is exactly what the fused collector hands the ranker.
auction::BidFrame random_frame(std::size_t n, stats::Rng& rng) {
    auction::BidFrame frame(n, 2);
    for (auction::NodeId node = 0; node < n; ++node) {
        double* q = frame.quality_row(node);
        q[0] = rng.uniform(5.0, kDataHi);
        q[1] = rng.uniform(0.1, 1.0);
        frame.payment(node) = rng.uniform(0.0, 3.0);
        frame.score(node) = scoring().score_span(q, 2, frame.payment(node));
    }
    frame.set_scored(true);
    return frame;
}

bool outcomes_equal(const auction::AuctionOutcome& a, const auction::AuctionOutcome& b) {
    if (a.winners.size() != b.winners.size()) return false;
    for (std::size_t w = 0; w < a.winners.size(); ++w) {
        if (a.winners[w].node != b.winners[w].node
            || a.winners[w].score != b.winners[w].score
            || a.winners[w].payment != b.winners[w].payment) {
            return false;
        }
    }
    if (a.ranking.size() != b.ranking.size()) return false;
    for (std::size_t r = 0; r < a.ranking.size(); ++r) {
        if (a.ranking[r].bid.node != b.ranking[r].bid.node
            || a.ranking[r].score != b.ranking[r].score
            || a.ranking[r].bid.payment != b.ranking[r].bid.payment) {
            return false;
        }
    }
    return true;
}

/// Nearest-rank percentile over an unsorted sample (copied, then sorted).
double percentile(std::vector<double> samples, double p) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = p * static_cast<double>(samples.size() - 1);
    const std::size_t idx = static_cast<std::size_t>(std::llround(rank));
    return samples[std::min(idx, samples.size() - 1)];
}

struct StreamingRow {
    std::size_t n = 0;
    double bids_per_sec = 0.0;
    double ingest_ms = 0.0;    ///< best-of offer-loop wall time per round
    double close_ms_p50 = 0.0; ///< trigger-to-outcome latency percentiles
    double close_ms_p95 = 0.0;
    double close_ms_p99 = 0.0;
    double batch_ms = 0.0;     ///< best-of batch run_frame on the same frame
    double overhead = 0.0;     ///< (ingest + close) / batch, both best-of
    bool identical = false;          ///< every streaming close == batch pass
    bool sharded_identical = false;  ///< StreamingHeadMerge == merge_heads
    std::size_t quorum_closes = 0;
    std::size_t deadline_closes = 0;
    std::size_t mix_rounds = 0;
};

/// Leg 1+2: throughput, close-latency percentiles, and per-round
/// bit-identity against the batch pass. The mechanism is the production
/// configuration (K=32, salted ties, bounded head) so ingestion runs the
/// O(log K) incremental lane; each round reshuffles the arrival order.
void bench_service(std::size_t n, std::size_t rounds, std::uint64_t seed,
                   StreamingRow& row) {
    auction::MechanismSpec spec;
    spec.num_winners = kWinners;
    spec.full_ranking = false;
    spec.tie_break = auction::TieBreak::salted;
    const std::shared_ptr<const auction::Mechanism> mech(auction::make_mechanism(spec));

    stats::Rng data_rng(seed);
    const auction::BidFrame frame = random_frame(n, data_rng);
    std::vector<auction::NodeId> order(n);
    for (auction::NodeId i = 0; i < n; ++i) order[i] = i;

    auction::StreamingMarket market(mech, scoring());
    auction::RankScratch scratch;
    auction::AuctionOutcome batch;
    stats::Rng order_rng(seed ^ 0x0cdeULL);

    row.identical = true;
    double ingest_best = 1e300;
    std::vector<double> batch_ms;
    std::vector<double> service_ms; ///< ingest + close, per round
    std::vector<double> close_ms;
    batch_ms.reserve(rounds);
    service_ms.reserve(rounds);
    close_ms.reserve(rounds);
    // Round 0 warms the market's internal buffers and is excluded from all
    // statistics (the same warm-up policy as scale_round).
    for (std::size_t r = 0; r <= rounds; ++r) {
        order_rng.shuffle(order);
        const std::uint64_t round_seed = seed ^ (0x100ULL + r);

        stats::Rng batch_rng(round_seed);
        auto start = clock_type::now();
        mech->run_frame(scoring(), frame, batch_rng, scratch, batch);
        if (r > 0) batch_ms.push_back(seconds_since(start) * 1e3);

        stats::Rng stream_rng(round_seed);
        market.open_round(n, 2, {}, stream_rng);
        double clock = 0.0;
        start = clock_type::now();
        for (const auction::NodeId node : order) {
            (void)market.offer(node, frame.quality_row(node), frame.payment(node),
                               frame.score(node), clock);
            clock += 1e-6;
        }
        const double ingest_s = seconds_since(start);

        start = clock_type::now();
        const auction::AuctionOutcome& got = market.close_round(stream_rng);
        const double close_s = seconds_since(start);
        if (r > 0) {
            ingest_best = std::min(ingest_best, ingest_s);
            service_ms.push_back((ingest_s + close_s) * 1e3);
            close_ms.push_back(close_s * 1e3);
        }
        row.identical = row.identical && outcomes_equal(batch, got);
    }

    row.ingest_ms = ingest_best * 1e3;
    row.bids_per_sec = static_cast<double>(n) / ingest_best;
    row.close_ms_p50 = percentile(close_ms, 0.50);
    row.close_ms_p95 = percentile(close_ms, 0.95);
    row.close_ms_p99 = percentile(close_ms, 0.99);
    // The regression-gated ratio compares MEDIANS, not minima: on a noisy
    // single-core runner the minimum of a sub-millisecond leg swings far
    // more run to run than the median does, and the gate's tolerance is
    // meant to catch code regressions, not scheduler luck.
    row.batch_ms = percentile(batch_ms, 0.50);
    row.overhead = percentile(service_ms, 0.50) / row.batch_ms;
}

/// Leg 3: the S=8 shard composition — per-shard heads collected over
/// contiguous row ranges, folded one at a time through StreamingHeadMerge,
/// compared bit for bit against the batch merge_heads over the same heads.
void bench_sharded(std::size_t n, std::uint64_t seed, StreamingRow& row) {
    auction::MechanismSpec spec;
    spec.num_winners = kWinners;
    spec.full_ranking = false;
    spec.tie_break = auction::TieBreak::salted;
    const std::shared_ptr<const auction::Mechanism> mech(auction::make_mechanism(spec));
    const auto* engine =
        dynamic_cast<const auction::ScoreAuctionMechanism*>(mech.get());
    if (engine == nullptr) {
        row.sharded_identical = false;
        return;
    }

    stats::Rng data_rng(seed);
    const auction::BidFrame frame = random_frame(n, data_rng);
    const std::size_t cutoff = engine->ranking_cutoff(n);

    // The salted tie keys the monolithic pass would derive — the salt is
    // the batch path's first draw.
    stats::Rng key_rng(seed ^ 0x5a17ULL);
    auction::TieKeys keys;
    keys.salted = true;
    keys.salt = key_rng.engine()();

    std::vector<auction::ShardHead> heads(kShards);
    auction::StreamingHeadMerge streaming;
    streaming.open(2, cutoff);
    const std::size_t base = n / kShards;
    std::size_t lo = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
        const std::size_t hi = s + 1 == kShards ? n : lo + base;
        auction::BidFrame local(hi - lo, 2);
        for (std::size_t r = 0; r < hi - lo; ++r) {
            const auction::NodeId node = static_cast<auction::NodeId>(lo + r);
            double* q = local.quality_row(r);
            q[0] = frame.quality_row(node)[0];
            q[1] = frame.quality_row(node)[1];
            local.payment(r) = frame.payment(node);
            local.score(r) = frame.score(node);
        }
        local.set_scored(true);
        auction::collect_shard_head(local, lo, keys, cutoff, heads[s]);
        streaming.ingest(heads[s]);
        lo = hi;
    }

    std::vector<auction::ScoredBid> batch_ranking;
    auction::merge_heads(heads, cutoff, batch_ranking);
    std::vector<auction::ScoredBid> stream_ranking;
    streaming.finish(stream_ranking);

    bool equal = batch_ranking.size() == stream_ranking.size();
    for (std::size_t r = 0; equal && r < batch_ranking.size(); ++r) {
        equal = batch_ranking[r].bid.node == stream_ranking[r].bid.node
                && batch_ranking[r].score == stream_ranking[r].score
                && batch_ranking[r].bid.payment == stream_ranking[r].bid.payment;
    }
    row.sharded_identical = equal;
}

/// Leg 4: Poisson traffic with the quorum and the deadline tuned to race
/// at even odds — quorum n/2 at rate n bids/s has an expected quorum time
/// of exactly the 0.5 s deadline, so per-round arrival noise decides which
/// trigger fires. The recorded mix is the service-level telemetry the
/// spec-layer knobs (`timing.min_updates`, `timing.round_deadline_s`)
/// trade off.
void bench_close_mix(std::size_t n, std::size_t rounds, std::uint64_t seed,
                     StreamingRow& row) {
    auction::MechanismSpec spec;
    spec.num_winners = kWinners;
    spec.full_ranking = false;
    spec.tie_break = auction::TieBreak::salted;
    const std::shared_ptr<const auction::Mechanism> mech(auction::make_mechanism(spec));

    stats::Rng data_rng(seed);
    const auction::BidFrame frame = random_frame(n, data_rng);

    auction::StreamingMarket market(mech, scoring());
    auction::StreamingRoundSpec round;
    round.deadline_s = 0.5;
    round.quorum = n / 2;
    stats::Rng traffic_rng(seed ^ 0x9013ULL);
    stats::Rng round_rng(seed ^ 0xf00dULL);

    row.mix_rounds = rounds;
    for (std::size_t r = 0; r < rounds; ++r) {
        const mec::ArrivalModel traffic =
            mec::ArrivalModel::poisson(n, static_cast<double>(n), traffic_rng);
        market.open_round(n, 2, round, round_rng);
        for (const mec::Arrival& arrival : traffic.schedule()) {
            const auction::NodeId node = static_cast<auction::NodeId>(arrival.node);
            if (!market.offer(node, frame.quality_row(node), frame.payment(node),
                              frame.score(node), arrival.seconds))
                break;
        }
        (void)market.close_round(round_rng);
        if (market.close_reason() == auction::CloseReason::quorum) ++row.quorum_closes;
        else if (market.close_reason() == auction::CloseReason::deadline)
            ++row.deadline_closes;
    }
}

/// Leg 5 (the `streaming_adaptive` section): the streaming service under
/// the adaptive quorum. Every round ingests Poisson traffic and closes with
/// `close_round`. An `fl::AdaptiveQuorumController` (the engine behind
/// `timing.adaptive_quorum`) races a fixed quorum deliberately set above
/// what the arrival process delivers by the deadline over the same traffic:
/// the fixed service waits out the full deadline every round, while the
/// controller walks the quorum down until the quorum trigger fires early
/// again. Close times are virtual (arrival-clock) seconds, so both the
/// improvement ratio and the schedule are exactly reproducible; the
/// schedule byte-identity flag replays the adaptive run from scratch and
/// compares rendered schedules.
struct AdaptiveStreamingRow {
    std::size_t n = 0;
    std::size_t rounds = 0;
    std::size_t fixed_quorum = 0;     ///< both runs open round 1 with this
    std::size_t adaptive_final = 0;   ///< controller's quorum after the run
    double fixed_close_s_mean = 0.0;
    double adaptive_close_s_mean = 0.0;
    double improvement = 0.0;         ///< fixed mean / adaptive mean
    bool schedule_identical = false;  ///< byte-equal schedule across replays
    std::size_t quorum_closes = 0;    ///< adaptive run's close mix
    std::size_t deadline_closes = 0;
};

std::string render_schedule(const std::vector<std::size_t>& schedule) {
    std::ostringstream out;
    for (std::size_t i = 0; i < schedule.size(); ++i)
        out << (i == 0 ? "" : ",") << schedule[i];
    return out.str();
}

void bench_adaptive_streaming(std::size_t n, std::size_t rounds, std::uint64_t seed,
                              AdaptiveStreamingRow& row) {
    auction::MechanismSpec spec;
    spec.num_winners = kWinners;
    spec.full_ranking = false;
    spec.tie_break = auction::TieBreak::salted;
    const std::shared_ptr<const auction::Mechanism> mech(auction::make_mechanism(spec));

    stats::Rng data_rng(seed);
    const auction::BidFrame frame = random_frame(n, data_rng);

    // One traffic tape for every run: arrival noise must not be a degree of
    // freedom between the fixed and the adaptive service.
    std::vector<mec::ArrivalModel> traffic;
    traffic.reserve(rounds);
    stats::Rng traffic_rng(seed ^ 0xada0ULL);
    for (std::size_t r = 0; r < rounds; ++r)
        traffic.push_back(
            mec::ArrivalModel::poisson(n, static_cast<double>(n), traffic_rng));

    const double deadline_s = 0.5;
    // Quorum 7n/8 at rate n bids/s wants ~0.875 s — hopeless against the
    // 0.5 s deadline, so the fixed service deadline-closes every round.
    // Step n/4 walks the adaptive service to 3n/8 (~0.375 s) in two
    // decisions, where it parks: quorum closes, but with too little slack
    // (p99 > slack_ratio x deadline) to trigger the raise rule.
    const std::size_t fixed_quorum = 7 * n / 8;
    fl::AdaptiveQuorumConfig acfg;
    acfg.initial = fixed_quorum;
    acfg.max_quorum = n;
    acfg.step = n / 4;
    acfg.window = 4;
    acfg.deadline_s = deadline_s;

    // One service pass over the traffic tape. `controller` == nullptr runs
    // the fixed quorum. Returns per-round close times.
    auto run = [&](fl::AdaptiveQuorumController* controller, std::vector<double>& close_s,
                   std::size_t* quorum_closes, std::size_t* deadline_closes) {
        auction::StreamingMarket market(mech, scoring());
        stats::Rng round_rng(seed ^ 0xc105eULL);
        auction::StreamingRoundSpec round;
        round.deadline_s = deadline_s;
        for (std::size_t r = 0; r < rounds; ++r) {
            round.quorum = controller ? controller->quorum() : fixed_quorum;
            market.open_round(n, 2, round, round_rng);
            for (const mec::Arrival& arrival : traffic[r].schedule()) {
                const auction::NodeId node =
                    static_cast<auction::NodeId>(arrival.node);
                if (!market.offer(node, frame.quality_row(node),
                                  frame.payment(node), frame.score(node),
                                  arrival.seconds))
                    break;
            }
            (void)market.close_round(round_rng);
            close_s.push_back(market.close_time_s());
            if (market.close_reason() == auction::CloseReason::quorum) {
                if (quorum_closes != nullptr) ++*quorum_closes;
            } else if (market.close_reason() == auction::CloseReason::deadline) {
                if (deadline_closes != nullptr) ++*deadline_closes;
            }
            if (controller != nullptr)
                controller->observe(auction::to_string(market.close_reason()),
                                    market.close_time_s());
        }
    };

    row.n = n;
    row.rounds = rounds;
    row.fixed_quorum = fixed_quorum;

    std::vector<double> fixed_close_s;
    run(nullptr, fixed_close_s, nullptr, nullptr);

    // Adaptive run, replayed from scratch for the schedule byte-identity
    // flag.
    std::vector<double> adaptive_close_s;
    fl::AdaptiveQuorumController controller(acfg);
    run(&controller, adaptive_close_s, &row.quorum_closes, &row.deadline_closes);
    row.adaptive_final = controller.quorum();
    {
        std::vector<double> replay_close_s;
        fl::AdaptiveQuorumController replay(acfg);
        run(&replay, replay_close_s, nullptr, nullptr);
        row.schedule_identical = render_schedule(controller.schedule())
                                 == render_schedule(replay.schedule());
    }

    double fixed_sum = 0.0;
    for (const double s : fixed_close_s) fixed_sum += s;
    double adaptive_sum = 0.0;
    for (const double s : adaptive_close_s) adaptive_sum += s;
    row.fixed_close_s_mean = fixed_sum / static_cast<double>(rounds);
    row.adaptive_close_s_mean = adaptive_sum / static_cast<double>(rounds);
    row.improvement = row.fixed_close_s_mean / row.adaptive_close_s_mean;
}

StreamingRow bench_streaming(std::size_t n, std::size_t rounds, std::size_t mix_rounds) {
    const std::uint64_t seed = 0x5ca1e000ULL + n;
    StreamingRow row;
    row.n = n;
    bench_service(n, rounds, seed, row);
    bench_sharded(n, seed, row);
    bench_close_mix(n, mix_rounds, seed, row);
    return row;
}

// ---------------------------------------------------------------------------
// Ledger I/O: splice the `streaming` section into BENCH_scale.json (or
// write a standalone object), plus the --check regression gate.
// ---------------------------------------------------------------------------

std::string render_section(const std::vector<StreamingRow>& rows, bool smoke,
                           std::size_t rounds, std::size_t mix_rounds) {
    std::ostringstream out;
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "\"streaming\": {\n"
                  "    \"smoke\": %s,\n"
                  "    \"hardware_threads\": %u,\n"
                  "    \"k\": %zu,\n"
                  "    \"shards\": %zu,\n"
                  "    \"rounds_timed\": %zu,\n"
                  "    \"mix_rounds\": %zu,\n"
                  "    \"rows\": [\n",
                  smoke ? "true" : "false", std::thread::hardware_concurrency(),
                  kWinners, kShards, rounds, mix_rounds);
    out << buf;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const StreamingRow& row = rows[i];
        const double mix = row.mix_rounds == 0
                               ? 0.0
                               : static_cast<double>(row.quorum_closes)
                                     / static_cast<double>(row.mix_rounds);
        std::snprintf(buf, sizeof buf,
                      "      {\"n\": %zu, \"bids_per_sec\": %.4g, "
                      "\"ingest_ms\": %.4g, \"close_ms_p50\": %.4g, "
                      "\"close_ms_p95\": %.4g, \"close_ms_p99\": %.4g, "
                      "\"batch_ms\": %.4g, \"streaming_vs_batch_overhead\": %.4g, "
                      "\"winners_bit_identical\": %s, "
                      "\"sharded_stream_bit_identical\": %s, "
                      "\"quorum_closes\": %zu, \"deadline_closes\": %zu, "
                      "\"quorum_close_fraction\": %.4g}%s\n",
                      row.n, row.bids_per_sec, row.ingest_ms, row.close_ms_p50,
                      row.close_ms_p95, row.close_ms_p99, row.batch_ms, row.overhead,
                      row.identical ? "true" : "false",
                      row.sharded_identical ? "true" : "false", row.quorum_closes,
                      row.deadline_closes, mix, i + 1 < rows.size() ? "," : "");
        out << buf;
    }
    out << "    ]\n  }";
    return out.str();
}

std::string render_adaptive_section(const AdaptiveStreamingRow& row, bool smoke) {
    std::ostringstream out;
    char buf[768];
    std::snprintf(buf, sizeof buf,
                  "\"streaming_adaptive\": {\n"
                  "    \"smoke\": %s,\n"
                  "    \"n\": %zu,\n"
                  "    \"k\": %zu,\n"
                  "    \"rounds\": %zu,\n"
                  "    \"deadline_s\": 0.5,\n"
                  "    \"fixed_quorum\": %zu,\n"
                  "    \"adaptive_final_quorum\": %zu,\n"
                  "    \"fixed_close_s_mean\": %.6g,\n"
                  "    \"adaptive_close_s_mean\": %.6g,\n"
                  "    \"adaptive_close_improvement\": %.6g,\n"
                  "    \"quorum_closes\": %zu,\n"
                  "    \"deadline_closes\": %zu,\n"
                  "    \"schedule_replay_identical\": %s\n"
                  "  }",
                  smoke ? "true" : "false", row.n, kWinners, row.rounds, row.fixed_quorum,
                  row.adaptive_final, row.fixed_close_s_mean, row.adaptive_close_s_mean,
                  row.improvement, row.quorum_closes, row.deadline_closes,
                  row.schedule_identical ? "true" : "false");
    out << buf;
    return out.str();
}

/// Write the ledger: splice the `streaming` and `streaming_adaptive`
/// sections into the shared JSON object via the section-bounded helpers —
/// each section replaced in place wherever it sits, every other byte
/// preserved verbatim (the co-owning benches can run in any order). A
/// standalone object is emitted when the target does not exist yet.
void write_ledger(const std::string& path, const std::string& section,
                  const std::string& adaptive_section) {
    std::string text;
    {
        std::ifstream in(path);
        if (in) {
            std::stringstream buffer;
            buffer << in.rdbuf();
            text = buffer.str();
        }
    }
    text = util::splice_ledger_section(std::move(text), "streaming", section);
    text = util::splice_ledger_section(std::move(text), "streaming_adaptive",
                                       adaptive_section);

    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        std::cerr << "streaming_market: cannot write " << path << '\n';
        std::exit(1);
    }
    out << text;
    std::cout << "\nwrote the streaming + streaming_adaptive sections of " << path
              << '\n';
}

bool extract_number(const std::string& text, const std::string& key, double* out) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = text.find(needle);
    if (at == std::string::npos) return false;
    *out = std::strtod(text.c_str() + at + needle.size(), nullptr);
    return true;
}

/// Gate fresh rows against the committed ledger's streaming section. The
/// overhead ratio is the regression signal: both of its legs run
/// single-threaded on the same machine, so it transfers across runners the
/// same way scale_round's speedup does.
bool check_against(const std::string& text, const std::vector<StreamingRow>& rows,
                   const AdaptiveStreamingRow& adaptive) {
    const std::string section = util::extract_ledger_section(text, "streaming");
    if (section.empty()) {
        std::cerr << "streaming_market --check: committed ledger has no"
                     " \"streaming\" section\n";
        return false;
    }

    double tolerance = 0.20;
    if (const char* env = std::getenv("FMORE_SCALE_TOLERANCE")) {
        const double v = std::atof(env);
        if (v > 0.0) tolerance = v;
    }

    bool ok = true;
    // The N=1M row is the service north-star: it must stay committed even
    // when the fresh run is a two-row smoke grid.
    {
        const std::string tag = "\"n\": 1000000,";
        const std::size_t at = section.find(tag);
        double committed_rate = 0.0;
        if (at == std::string::npos) {
            std::cerr << "streaming_market --check: committed streaming section is"
                         " missing the N=1000000 row\n";
            ok = false;
        } else {
            const std::size_t end = section.find('}', at);
            const std::string object = section.substr(at, end - at);
            if (!extract_number(object, "bids_per_sec", &committed_rate)
                || !(committed_rate > 0.0)
                || object.find("\"winners_bit_identical\": true") == std::string::npos
                || object.find("\"sharded_stream_bit_identical\": true")
                       == std::string::npos) {
                std::cerr << "streaming_market --check: committed N=1000000 row lacks"
                             " a positive bids_per_sec with both bit-identity flags"
                             " true\n";
                ok = false;
            }
        }
    }
    for (const StreamingRow& row : rows) {
        if (!row.identical) {
            std::cerr << "streaming_market --check: streaming close diverged from the"
                         " batch pass at N=" << row.n << '\n';
            ok = false;
        }
        if (!row.sharded_identical) {
            std::cerr << "streaming_market --check: StreamingHeadMerge diverged from"
                         " merge_heads at N=" << row.n << '\n';
            ok = false;
        }
        const std::string tag = "\"n\": " + std::to_string(row.n) + ",";
        const std::size_t at = section.find(tag);
        if (at == std::string::npos) {
            std::cerr << "streaming_market --check: committed streaming section is"
                         " missing N=" << row.n << '\n';
            ok = false;
            continue;
        }
        const std::size_t end = section.find('}', at);
        const std::string object = section.substr(at, end - at);
        double committed_overhead = 0.0;
        if (!extract_number(object, "streaming_vs_batch_overhead", &committed_overhead)
            || !(committed_overhead > 0.0)) {
            std::cerr << "streaming_market --check: committed N=" << row.n
                      << " row is missing a positive streaming_vs_batch_overhead"
                         " key\n";
            ok = false;
            continue;
        }
        if (row.overhead > committed_overhead * (1.0 + tolerance)) {
            std::cerr << "streaming_market --check: overhead at N=" << row.n
                      << " regressed: " << row.overhead << "x vs committed "
                      << committed_overhead << "x (tolerance "
                      << static_cast<int>(tolerance * 100) << "%)\n";
            ok = false;
        }
    }
    // The streaming_adaptive gates are semantic, not timing: the close
    // times are virtual (arrival-clock) seconds, so the improvement ratio
    // is exactly reproducible and must not shrink below break-even.
    const std::string adaptive_section =
        util::extract_ledger_section(text, "streaming_adaptive");
    if (adaptive_section.empty()) {
        std::cerr << "streaming_market --check: committed ledger has no"
                     " \"streaming_adaptive\" section\n";
        ok = false;
    } else {
        double committed_improvement = 0.0;
        if (!extract_number(adaptive_section, "adaptive_close_improvement",
                            &committed_improvement)
            || !(committed_improvement > 1.0)) {
            std::cerr << "streaming_market --check: committed streaming_adaptive"
                         " section lacks an adaptive_close_improvement > 1\n";
            ok = false;
        }
        if (adaptive_section.find("\"schedule_replay_identical\": true")
            == std::string::npos) {
            std::cerr << "streaming_market --check: committed streaming_adaptive"
                         " section lacks the schedule identity flag\n";
            ok = false;
        }
    }
    if (!adaptive.schedule_identical) {
        std::cerr << "streaming_market --check: fresh adaptive quorum schedule was"
                     " not byte-identical across two replays\n";
        ok = false;
    }
    if (!(adaptive.improvement > 1.0)) {
        std::cerr << "streaming_market --check: fresh adaptive close-time"
                     " improvement is " << adaptive.improvement
                  << "x (expected > 1)\n";
        ok = false;
    }
    if (ok)
        std::cout << "--check: streaming + streaming_adaptive sections present, no"
                     " regression beyond tolerance\n";
    return ok;
}

} // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string out_path;
    std::string check_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
            check_path = argv[++i];
        } else {
            std::cerr << "usage: streaming_market [--smoke] [--out path.json]"
                         " [--check committed.json]\n";
            return 2;
        }
    }
    // Only a FULL run may claim the committed ledger name by default — the
    // CI smoke gate (`--smoke --check BENCH_scale.json`) must not replace
    // the full-grid streaming section.
    if (out_path.empty())
        out_path = smoke ? "BENCH_streaming_smoke.json" : "BENCH_scale.json";

    std::string committed_text;
    if (!check_path.empty()) {
        std::ifstream in(check_path);
        if (!in) {
            std::cerr << "streaming_market --check: cannot read " << check_path << '\n';
            return 1;
        }
        std::stringstream buffer;
        buffer << in.rdbuf();
        committed_text = buffer.str();
    }

    // Both ratio legs single-threaded: ingestion is one arrival at a time
    // by construction, so the batch side must not get a thread-grid head
    // start that varies by runner.
    const ScopedEnv threads("FMORE_ROUND_THREADS", "1");

    std::vector<std::size_t> grid{10'000, 100'000};
    if (!smoke) grid.push_back(1'000'000);
    const std::size_t rounds = smoke ? 12 : 24;
    const std::size_t mix_rounds = smoke ? 16 : 32;

    std::cout << "streaming_market: continuous ingestion vs batch run_frame, K="
              << kWinners << ", S=" << kShards << (smoke ? " (smoke)" : "") << "\n"
              << rounds << " timed service rounds per N (round 0 warms buffers), "
              << mix_rounds << " Poisson close-mix rounds\n\n";
    std::printf("%10s  %12s  %10s  %10s  %10s  %9s  %13s  %s\n", "N", "bids/sec",
                "close p50", "close p95", "close p99", "overhead", "quorum/dl",
                "winners");

    std::vector<StreamingRow> rows;
    for (const std::size_t n : grid) {
        const StreamingRow row = bench_streaming(n, rounds, mix_rounds);
        std::printf("%10zu  %12.3g  %8.3f ms %8.3f ms %8.3f ms  %8.2fx  %7zu/%zu     %s\n",
                    row.n, row.bids_per_sec, row.close_ms_p50, row.close_ms_p95,
                    row.close_ms_p99, row.overhead, row.quorum_closes,
                    row.deadline_closes,
                    row.identical && row.sharded_identical ? "bit-identical"
                                                           : "DIVERGED");
        rows.push_back(row);
    }

    const std::size_t adaptive_n = smoke ? 10'000 : 100'000;
    const std::size_t adaptive_rounds = smoke ? 16 : 32;
    AdaptiveStreamingRow adaptive;
    bench_adaptive_streaming(adaptive_n, adaptive_rounds, 0x5ca1e000ULL + adaptive_n,
                             adaptive);
    std::printf("\nadaptive streaming service: N=%zu rounds=%zu  "
                "fixed close %.3f s -> adaptive %.3f s (%.2fx, quorum %zu -> %zu)"
                "  schedule replay %s\n",
                adaptive.n, adaptive.rounds, adaptive.fixed_close_s_mean,
                adaptive.adaptive_close_s_mean, adaptive.improvement,
                adaptive.fixed_quorum, adaptive.adaptive_final,
                adaptive.schedule_identical ? "byte-identical" : "DIVERGED");

    write_ledger(out_path, render_section(rows, smoke, rounds, mix_rounds),
                 render_adaptive_section(adaptive, smoke));

    for (const StreamingRow& row : rows) {
        if (!row.identical) {
            std::cerr << "streaming_market: streaming close diverged at N=" << row.n
                      << '\n';
            return 1;
        }
        if (!row.sharded_identical) {
            std::cerr << "streaming_market: sharded head merge diverged at N=" << row.n
                      << '\n';
            return 1;
        }
    }
    if (!adaptive.schedule_identical) {
        std::cerr << "streaming_market: adaptive quorum schedule diverged\n";
        return 1;
    }
    if (!check_path.empty() && !check_against(committed_text, rows, adaptive))
        return 1;
    return 0;
}
