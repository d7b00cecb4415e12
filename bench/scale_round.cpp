// scale_round: the market-scale performance ledger. Auction-only rounds
// (evolve + collect + rank + select + price, no training) over synthetic
// SoA populations at N in {10k, 100k, 1M, 10M}, timing the fused BidFrame
// path against the classic per-bid reference (reference::
// ClassicAuctionSelector from tests/reference, the pre-SoA round shape:
// per-node walk, one QualityVector per bid, a WinnerDetermination rebuilt
// per round) AND against the sharded
// marketplace (ShardedAuctionSelector, 8 shards of one population,
// bounded-head merge). Winners and payments are asserted bit-identical between the
// monolithic legs every round, AND between the fused and sharded legs,
// and the fused leg's steady-state allocation count is measured with a
// global operator-new hook (the contract is ZERO per round once buffers
// are warm). At N = 10M only the fused and sharded legs run — the classic
// per-bid leg's AoS shadow walk is a multi-second-per-round detour that
// the three smaller rows already bound. Everything lands in a
// machine-readable BENCH_scale.json.
//
//   scale_round [--smoke] [--out path.json] [--check committed.json]
//
// --smoke shrinks the N grid to {10k, 100k} and the round count (CI).
// --check compares the fresh measurements against a committed ledger:
// exit 1 if required keys are missing (the N = 10M sharded row must be
// committed even when the fresh run is a smoke run), winners diverged on
// either comparison, allocations are nonzero, or the fused-vs-classic
// SPEEDUP (machine-relative, so it transfers across runners) regressed by
// more than FMORE_SCALE_TOLERANCE (default 0.20 = 20%).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fmore/auction/cost.hpp"
#include "fmore/auction/equilibrium.hpp"
#include "fmore/auction/scoring.hpp"
#include "fmore/mec/auction_selector.hpp"
#include "fmore/mec/sharded_selector.hpp"
#include "fmore/reference/classic_auction_selector.hpp"
#include "fmore/reference/edge_node.hpp"
#include "fmore/stats/normalizer.hpp"
#include "fmore/util/json_ledger.hpp"

// ---------------------------------------------------------------------------
// Global allocation hook: counts every operator-new in the process so the
// bench can prove the fused bid path's steady state allocates nothing.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
} // namespace

void* operator new(std::size_t size) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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

/// RAII env override that restores the caller's prior value (so e.g. an
/// explicit FMORE_ROUND_THREADS=4 run is measured at 4 threads for every
/// row, not just until the first internal override).
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
constexpr std::size_t kShards = 8; ///< the scale/10m preset's shard count

/// The simulator's market (Section V.A scoring/cost) solved once per N —
/// the solve is O(grids), independent of N, so the equilibrium layer is
/// never the scale bottleneck.
struct Market {
    std::vector<stats::MinMaxNormalizer> norms;
    std::unique_ptr<auction::ScaledProductScoring> scoring;
    std::unique_ptr<auction::AdditiveCost> cost;
    std::unique_ptr<stats::UniformDistribution> theta;
    std::unique_ptr<auction::EquilibriumStrategy> strategy;

    explicit Market(std::size_t n) {
        norms.emplace_back(0.0, kDataHi);
        norms.emplace_back(0.0, 1.0);
        scoring = std::make_unique<auction::ScaledProductScoring>(25.0, 2, norms);
        cost = std::make_unique<auction::AdditiveCost>(
            std::vector<double>{6.0 / kDataHi, 2.0});
        theta = std::make_unique<stats::UniformDistribution>(0.5, 1.5);
        auction::EquilibriumConfig eq;
        eq.num_bidders = n;
        eq.num_winners = kWinners;
        strategy = std::make_unique<auction::EquilibriumStrategy>(
            auction::EquilibriumSolver(*scoring, *cost, *theta, {1.0, 0.05},
                                       {kDataHi, 1.0}, eq)
                .solve());
    }
};

mec::PopulationStore make_store(std::size_t n, const Market& market,
                                std::uint64_t seed) {
    mec::PopulationSpec spec;
    spec.dynamics.resource_jitter = 0.08;
    spec.dynamics.theta_jitter = 0.02;
    mec::SyntheticDataSpec data;
    data.data_lo = 20.0;
    data.data_hi = kDataHi;
    stats::Rng rng(seed);
    return mec::PopulationStore(n, data, *market.theta, spec, rng);
}

mec::MecPopulation make_population(std::size_t n, const Market& market,
                                   std::uint64_t seed) {
    return mec::MecPopulation(make_store(n, market, seed));
}

auction::WinnerDeterminationConfig make_wd() {
    auction::WinnerDeterminationConfig wd;
    wd.num_winners = kWinners;
    wd.full_ranking = false; // the fused O(N log K) production configuration
    return wd;
}

mec::AuctionSelector make_selector(mec::MecPopulation& population, const Market& market) {
    return mec::AuctionSelector(population, *market.scoring, *market.strategy, make_wd(),
                                mec::data_category_extractor(), /*data_dimension=*/0);
}

struct RoundWinners {
    std::vector<auction::Winner> winners;
};

struct LegResult {
    double evolve_ms = 0.0;  ///< per round
    double bid_ms = 0.0;     ///< collect + rank + select + price, per round
    std::vector<RoundWinners> rounds;

    [[nodiscard]] double ms_per_round() const { return evolve_ms + bid_ms; }
};

/// Run `rounds` auction rounds on one leg; round 1 warms buffers and is
/// excluded from the timing.
///
/// Both legs drive their bids from the SAME store state (that is what
/// makes the per-round winner comparison exact), so the legacy leg's
/// evolve cost is measured on a shadow AoS copy walked by the retained
/// pre-SoA implementation — `reference::EdgeNode::evolve`, four shared-stream
/// mt19937_64 draws per node — which is precisely what the pre-PR round
/// paid. The shared store drift is charged to the fused leg only; the
/// pre-PR system never ran it.
LegResult run_leg(std::size_t n, const Market& market, bool legacy, std::size_t rounds,
                  std::uint64_t seed) {
    mec::MecPopulation population = make_population(n, market, seed);
    std::optional<mec::AuctionSelector> selector;
    std::optional<reference::ClassicAuctionSelector> classic;
    if (legacy) {
        classic.emplace(population, *market.scoring, *market.strategy, make_wd(),
                        mec::data_category_extractor(), /*data_dimension=*/0);
    } else {
        selector.emplace(make_selector(population, market));
    }

    const mec::PopulationStore& store = population.store();
    std::vector<reference::EdgeNode> shadow;
    stats::Rng shadow_rng(seed ^ 0xa05ULL);
    if (legacy) {
        shadow.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            shadow.emplace_back(i, store.theta(i), store.resources(i), store.caps(i));
        }
    }

    stats::Rng rng(seed ^ 0xf00dULL);
    LegResult out;
    out.rounds.reserve(rounds);
    // Best-of across the timed rounds (round 1 excluded as warm-up), the
    // same scheduler-noise policy as micro_kernels.
    double evolve_best = 1e300;
    double bid_best = 1e300;
    for (std::size_t round = 1; round <= rounds; ++round) {
        if (round > 1) {
            if (legacy) {
                // The pre-PR evolve: serial AoS walk, one shared RNG.
                const auto start = clock_type::now();
                for (reference::EdgeNode& node : shadow) {
                    node.evolve(store.dynamics(), store.theta_lo(), store.theta_hi(),
                                shadow_rng);
                }
                evolve_best = std::min(evolve_best, seconds_since(start));
                population.evolve(rng); // shared state advance, uncharged
            } else {
                const auto start = clock_type::now();
                population.evolve(rng);
                evolve_best = std::min(evolve_best, seconds_since(start));
            }
        }
        const auto start = clock_type::now();
        const auction::AuctionOutcome& outcome =
            legacy ? classic->run_auction_round(/*round=*/1, kWinners, rng)
                   : selector->run_auction_round(/*round=*/1, kWinners, rng);
        if (round > 1) bid_best = std::min(bid_best, seconds_since(start));
        out.rounds.push_back(RoundWinners{outcome.winners});
    }
    out.evolve_ms = evolve_best * 1e3;
    out.bid_ms = bid_best * 1e3;
    return out;
}

/// The sharded marketplace over the SAME market and seed: the population
/// cut into kShards contiguous ranges, per-shard one-pass head
/// (`collect_head_rows`), bounded-head merge. `run_auction_round` consumes the generator exactly
/// like the monolithic round (one drift salt, one global tie permutation),
/// so its winners must match the fused leg's bit for bit — the per-row
/// `sharded_winners_bit_identical` assertion.
LegResult run_sharded_leg(std::size_t n, const Market& market, std::size_t rounds,
                          std::uint64_t seed) {
    auction::WinnerDeterminationConfig wd;
    wd.num_winners = kWinners;
    wd.full_ranking = false;
    mec::MecPopulation population = make_population(n, market, seed);
    mec::ShardedAuctionSelector selector(
        population, *market.scoring, *market.strategy, wd,
        {mec::ResourceDim::data_size, mec::ResourceDim::category_proportion},
        /*data_dimension=*/0, kShards);

    stats::Rng rng(seed ^ 0xf00dULL);
    LegResult out;
    out.rounds.reserve(rounds);
    double round_best = 1e300;
    for (std::size_t round = 1; round <= rounds; ++round) {
        // Drift happens inside the sharded round (round > 1 draws the
        // salt), so the timed span is the whole evolve+bid pipeline —
        // comparable to the fused leg's evolve_ms + bid_ms.
        const auto start = clock_type::now();
        const auction::AuctionOutcome& outcome =
            selector.run_auction_round(round, kWinners, rng);
        if (round > 1) round_best = std::min(round_best, seconds_since(start));
        out.rounds.push_back(RoundWinners{outcome.winners});
    }
    out.bid_ms = round_best * 1e3;
    return out;
}

/// Steady-state allocations per fused round, measured on the serial path
/// (FMORE_ROUND_THREADS=1): rounds 3.. touch only warm buffers, so the
/// contract is a delta of zero.
std::uint64_t measure_steady_allocs(std::size_t n, const Market& market,
                                    std::uint64_t seed) {
    const ScopedEnv threads("FMORE_ROUND_THREADS", "1");
    mec::MecPopulation population = make_population(n, market, seed);
    mec::AuctionSelector selector = make_selector(population, market);
    stats::Rng rng(seed ^ 0xf00dULL);
    (void)selector.run_auction_round(1, kWinners, rng); // warm-up
    (void)selector.run_auction_round(2, kWinners, rng); // reach steady state
    const std::uint64_t before = g_alloc_count.load();
    constexpr std::size_t kSteadyRounds = 3;
    for (std::size_t round = 3; round < 3 + kSteadyRounds; ++round) {
        (void)selector.run_auction_round(round, kWinners, rng);
    }
    const std::uint64_t delta = g_alloc_count.load() - before;
    return delta / kSteadyRounds;
}

bool winners_match(const LegResult& a, const LegResult& b) {
    if (a.rounds.size() != b.rounds.size()) return false;
    for (std::size_t r = 0; r < a.rounds.size(); ++r) {
        const auto& wa = a.rounds[r].winners;
        const auto& wb = b.rounds[r].winners;
        if (wa.size() != wb.size()) return false;
        for (std::size_t i = 0; i < wa.size(); ++i) {
            if (wa[i].node != wb[i].node || wa[i].payment != wb[i].payment
                || wa[i].score != wb[i].score) {
                return false;
            }
        }
    }
    return true;
}

struct ScaleRow {
    std::size_t n = 0;
    bool has_legacy = true;  ///< false at N=10M: fused + sharded legs only
    double legacy_ms = 0.0;
    double legacy_evolve_ms = 0.0;
    double legacy_bid_ms = 0.0;
    double soa_ms = 0.0;
    double soa_evolve_ms = 0.0;
    double soa_bid_ms = 0.0;
    double sharded_ms = 0.0;
    std::uint64_t steady_allocs = 0;
    bool identical = false;          ///< legacy vs fused (true when no legacy leg)
    bool sharded_identical = false;  ///< fused vs sharded
};

ScaleRow bench_scale(std::size_t n, std::size_t rounds, bool with_legacy) {
    const Market market(n);
    const std::uint64_t seed = 0x5ca1e000ULL + n;
    ScaleRow row;
    row.n = n;
    row.has_legacy = with_legacy;
    row.identical = true;
    const LegResult fused = run_leg(n, market, /*legacy=*/false, rounds, seed);
    row.soa_ms = fused.ms_per_round();
    row.soa_evolve_ms = fused.evolve_ms;
    row.soa_bid_ms = fused.bid_ms;
    if (with_legacy) {
        const LegResult legacy = run_leg(n, market, /*legacy=*/true, rounds, seed);
        row.legacy_ms = legacy.ms_per_round();
        row.legacy_evolve_ms = legacy.evolve_ms;
        row.legacy_bid_ms = legacy.bid_ms;
        row.identical = winners_match(legacy, fused);
    }
    const LegResult sharded = run_sharded_leg(n, market, rounds, seed);
    row.sharded_ms = sharded.ms_per_round();
    row.sharded_identical = winners_match(fused, sharded);
    row.steady_allocs = measure_steady_allocs(n, market, seed);
    return row;
}

// ---------------------------------------------------------------------------
// Ledger I/O + the --check regression gate
// ---------------------------------------------------------------------------

/// Write the ledger by SPLICING: this bench owns the grid scalars and the
/// `scale` rows; the `faults` / `streaming` / `streaming_sharded` sections
/// the other benches splice into the same file survive a rewrite verbatim
/// (historically this writer truncated the whole file, so a scale rerun
/// silently dropped every other bench's section).
void write_ledger(const std::string& path, const std::vector<ScaleRow>& rows,
                  bool smoke, std::size_t rounds) {
    std::ostringstream section;
    char buf[512];
    section << "\"scale\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ScaleRow& row = rows[i];
        std::snprintf(buf, sizeof buf, "    {\"n\": %zu, ", row.n);
        section << buf;
        if (row.has_legacy) {
            std::snprintf(buf, sizeof buf,
                          "\"legacy_ms_per_round\": %.4g, "
                          "\"legacy_evolve_ms\": %.4g, \"legacy_bid_ms\": %.4g, ",
                          row.legacy_ms, row.legacy_evolve_ms, row.legacy_bid_ms);
            section << buf;
        }
        std::snprintf(buf, sizeof buf,
                      "\"soa_ms_per_round\": %.4g, "
                      "\"soa_evolve_ms\": %.4g, \"soa_bid_ms\": %.4g, ",
                      row.soa_ms, row.soa_evolve_ms, row.soa_bid_ms);
        section << buf;
        if (row.has_legacy) {
            std::snprintf(buf, sizeof buf,
                          "\"speedup\": %.4g, \"winners_bit_identical\": %s, ",
                          row.legacy_ms / row.soa_ms,
                          row.identical ? "true" : "false");
            section << buf;
        }
        std::snprintf(buf, sizeof buf,
                      "\"sharded_ms_per_round\": %.4g, "
                      "\"sharded_winners_bit_identical\": %s, "
                      "\"steady_state_allocs_per_round\": %llu}%s\n",
                      row.sharded_ms, row.sharded_identical ? "true" : "false",
                      static_cast<unsigned long long>(row.steady_allocs),
                      i + 1 < rows.size() ? "," : "");
        section << buf;
    }
    section << "  ]";

    std::string text;
    {
        std::ifstream in(path);
        if (in) {
            std::stringstream buffer;
            buffer << in.rdbuf();
            text = buffer.str();
        }
    }
    const auto scalar = [&text](const char* key, const std::string& value) {
        std::string entry(1, '"');
        entry.append(key).append("\": ").append(value);
        text = util::splice_ledger_section(std::move(text), key, entry);
    };
    scalar("smoke", smoke ? "true" : "false");
    scalar("hardware_threads", std::to_string(std::thread::hardware_concurrency()));
    scalar("k", std::to_string(kWinners));
    scalar("shards", std::to_string(kShards));
    scalar("rounds_timed", std::to_string(rounds - 1));
    text = util::splice_ledger_section(std::move(text), "scale", section.str());

    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        std::cerr << "scale_round: cannot write " << path << '\n';
        std::exit(1);
    }
    out << text;
    std::cout << "\nwrote the scale section of " << path << '\n';
}

/// Pull `"key": <number>` out of a JSON object snippet.
bool extract_number(const std::string& text, const std::string& key, double* out) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = text.find(needle);
    if (at == std::string::npos) return false;
    *out = std::strtod(text.c_str() + at + needle.size(), nullptr);
    return true;
}

/// Compare fresh rows against the committed ledger's TEXT (slurped before
/// the fresh ledger is written, so `--out` and `--check` may name the same
/// file). Returns false (and explains) when keys are missing or the fused
/// path regressed.
bool check_against(const std::string& ledger, const std::vector<ScaleRow>& rows) {
    // Scope every row lookup to the `scale` section: the streaming rows in
    // the shared ledger carry the same `"n": ...` tags.
    const std::string text = util::extract_ledger_section(ledger, "scale");
    if (text.empty()) {
        std::cerr << "scale_round --check: committed ledger has no \"scale\" key\n";
        return false;
    }

    double tolerance = 0.20;
    if (const char* env = std::getenv("FMORE_SCALE_TOLERANCE")) {
        const double v = std::atof(env);
        if (v > 0.0) tolerance = v;
    }

    bool ok = true;
    // The 10M sharded row is the scale north-star: it must stay committed
    // even when the fresh run is a two-row smoke grid.
    {
        const std::string tag = "\"n\": 10000000,";
        const std::size_t at = text.find(tag);
        double committed_sharded = 0.0;
        if (at == std::string::npos) {
            std::cerr << "scale_round --check: committed ledger is missing the "
                         "N=10000000 sharded row\n";
            ok = false;
        } else {
            const std::size_t end = text.find('}', at);
            const std::string object = text.substr(at, end - at);
            if (!extract_number(object, "sharded_ms_per_round", &committed_sharded)
                || !(committed_sharded > 0.0)
                || object.find("\"sharded_winners_bit_identical\": true")
                       == std::string::npos) {
                std::cerr << "scale_round --check: committed N=10000000 row lacks a "
                             "positive sharded_ms_per_round with "
                             "sharded_winners_bit_identical=true\n";
                ok = false;
            }
        }
    }
    for (const ScaleRow& row : rows) {
        if (!row.identical) {
            std::cerr << "scale_round --check: winners diverged at N=" << row.n << '\n';
            ok = false;
        }
        if (!row.sharded_identical) {
            std::cerr << "scale_round --check: sharded winners diverged at N=" << row.n
                      << '\n';
            ok = false;
        }
        if (row.steady_allocs != 0) {
            std::cerr << "scale_round --check: " << row.steady_allocs
                      << " steady-state allocations per round at N=" << row.n
                      << " (contract: 0)\n";
            ok = false;
        }
        // Locate this N's committed object. The trailing comma keeps
        // "n": 10000 from matching the "n": 100000 row.
        const std::string tag = "\"n\": " + std::to_string(row.n) + ",";
        const std::size_t at = text.find(tag);
        if (at == std::string::npos) {
            std::cerr << "scale_round --check: committed ledger is missing N=" << row.n
                      << '\n';
            ok = false;
            continue;
        }
        const std::size_t end = text.find('}', at);
        const std::string object = text.substr(at, end - at);
        double committed_sharded = 0.0;
        if (!extract_number(object, "sharded_ms_per_round", &committed_sharded)
            || !(committed_sharded > 0.0)) {
            std::cerr << "scale_round --check: committed N=" << row.n
                      << " row is missing a positive sharded_ms_per_round key\n";
            ok = false;
        }
        if (!row.has_legacy) continue;
        double committed_speedup = 0.0;
        if (!extract_number(object, "speedup", &committed_speedup)
            || !(committed_speedup > 0.0)) {
            std::cerr << "scale_round --check: committed N=" << row.n
                      << " row is missing a positive speedup key\n";
            ok = false;
            continue;
        }
        // Gate on the fused-vs-classic SPEEDUP, not absolute ms: both legs
        // run on the same machine, so the ratio transfers across runner
        // generations while still catching fused-path regressions.
        const double measured_speedup = row.legacy_ms / row.soa_ms;
        if (measured_speedup < committed_speedup * (1.0 - tolerance)) {
            std::cerr << "scale_round --check: fused speedup at N=" << row.n
                      << " regressed: " << measured_speedup << "x vs committed "
                      << committed_speedup << "x (tolerance "
                      << static_cast<int>(tolerance * 100) << "%)\n";
            ok = false;
        }
    }
    if (ok) std::cout << "--check: ledger keys present, no regression beyond tolerance\n";
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
            std::cerr << "usage: scale_round [--smoke] [--out path.json]"
                         " [--check committed.json]\n";
            return 2;
        }
    }
    // Only a FULL run may claim the committed ledger name by default: the
    // documented smoke command (`--smoke --check BENCH_scale.json`) must
    // not replace the full-grid baseline with a two-row smoke ledger.
    if (out_path.empty()) out_path = smoke ? "BENCH_scale_smoke.json" : "BENCH_scale.json";

    // Slurp the committed ledger up front: the fresh write below may target
    // the same path.
    std::string committed_text;
    if (!check_path.empty()) {
        std::ifstream in(check_path);
        if (!in) {
            std::cerr << "scale_round --check: cannot read " << check_path << '\n';
            return 1;
        }
        std::stringstream buffer;
        buffer << in.rdbuf();
        committed_text = buffer.str();
    }

    std::vector<std::size_t> grid{10'000, 100'000};
    if (!smoke) {
        grid.push_back(1'000'000);
        grid.push_back(10'000'000);
    }
    const std::size_t rounds = smoke ? 4 : 8;

    std::cout << "scale_round: auction-only rounds, classic per-bid path vs fused SoA"
                 " vs sharded (S=" << kShards << ")" << (smoke ? " (smoke)" : "") << "\n"
              << "K=" << kWinners << ", " << rounds - 1
              << " timed rounds per leg (round 1 warms buffers);"
                 " N=10M runs the fused and sharded legs only\n\n";
    std::printf("%10s  %14s  %14s  %15s  %8s  %8s  %s\n", "N", "legacy ms/round",
                "fused ms/round", "sharded ms/round", "speedup", "allocs", "winners");

    std::vector<ScaleRow> rows;
    for (const std::size_t n : grid) {
        const bool with_legacy = n < 10'000'000;
        const ScaleRow row = bench_scale(n, rounds, with_legacy);
        char legacy_col[32];
        char speedup_col[32];
        if (row.has_legacy) {
            std::snprintf(legacy_col, sizeof legacy_col, "%.2f", row.legacy_ms);
            std::snprintf(speedup_col, sizeof speedup_col, "%.2fx",
                          row.legacy_ms / row.soa_ms);
        } else {
            std::snprintf(legacy_col, sizeof legacy_col, "-");
            std::snprintf(speedup_col, sizeof speedup_col, "-");
        }
        std::printf("%10zu  %14s  %14.2f  %15.2f  %8s  %8llu  %s\n", row.n, legacy_col,
                    row.soa_ms, row.sharded_ms, speedup_col,
                    static_cast<unsigned long long>(row.steady_allocs),
                    row.identical && row.sharded_identical ? "bit-identical"
                                                           : "DIVERGED");
        rows.push_back(row);
    }

    write_ledger(out_path, rows, smoke, rounds);

    for (const ScaleRow& row : rows) {
        if (!row.identical) {
            std::cerr << "scale_round: winners diverged at N=" << row.n << '\n';
            return 1;
        }
        if (!row.sharded_identical) {
            std::cerr << "scale_round: sharded winners diverged at N=" << row.n << '\n';
            return 1;
        }
    }
    if (!check_path.empty() && !check_against(committed_text, rows)) return 1;
    return 0;
}
