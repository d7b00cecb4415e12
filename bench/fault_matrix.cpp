// fault_matrix: the sharded market's fault-tolerance ledger. Where
// scale_round times the happy path, this bench runs the fork-per-shard
// ProcessShardAggregator under a matrix of deterministic fault plans
// (util::FaultInjector) with the supervisor respawning evicted workers,
// and records per plan
//
//   - rounds_degraded: rounds that lost at least one shard head,
//   - evictions / respawns / retired workers and the corrupt-frame
//     detection counters (every corrupt frame must be caught by the wire
//     CRC, retried once, and never consumed),
//   - mean/max recovery latency in rounds (eviction -> first round the
//     respawned worker contributes a head again),
//   - bit_identity_after_rejoin: every round in which no shard was down
//     must match a never-faulted twin aggregator bit for bit — the
//     respawn re-sync (salt-history replay) is what makes this true.
//
// A `fork_memory` object records the fork transport's resident set on the
// wire_1m market (1M nodes, 200k under --smoke, 4 workers): the largest
// worker peak resident set (VmHWM), how far the coordinator's and each
// worker's peak rise above the coordinator's resident set before the
// aggregator exists (negative when a worker holds less), and the most
// anonymous memory a worker holds of its own (its RssAnon less what it
// inherited, the coordinator's RssAnon before construction without the
// store), without and with a respawn budget.
//
// Results land in the `faults` section of BENCH_scale.json, spliced
// section-bounded via util/json_ledger.hpp: only the `faults` member is
// replaced, wherever it sits, so the co-owning benches can run in any
// order.
//
//   fault_matrix [--smoke] [--out path.json] [--check committed.json]
//
// --smoke shrinks N, the shard count and the round count (CI). --check
// gates on structure and semantics — bit-identity flags, corrupt frames
// detected (not consumed) at positive corruption rates, respawns
// happening at positive crash rates — and on the fork_memory ratios: the
// coordinator's peak grows by less than a quarter of the store without a
// respawn budget, and by less than 0.75 of it with one, which fails when
// the respawn sources are full-width splits (about a whole store; the
// narrowed splits hold 33 of its 72 bytes a row, about 0.46); no worker's
// peak exceeds the coordinator's resident set before construction by half
// the store, nor that set less the store by half the store, which fails
// when a worker carries the caller's store; and, tightest, no worker holds
// 0.75 times its share of the store (store / 4) of its own, which fails
// when a worker keeps all nine columns of its rows (about 1.0 share) or a
// bid frame over them (about 1.46); a worker narrowed to the bid layout
// holds about 0.5. Each bound sits between the passing and the failing
// reading with room on either side, so ratios of one run's own numbers
// hold on any machine. No timing gates: fault-recovery latency is
// dominated by deliberate stalls and deadlines, not by code.

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fmore/auction/cost.hpp"
#include "fmore/auction/equilibrium.hpp"
#include "fmore/auction/scoring.hpp"
#include "fmore/auction/winner_determination.hpp"
#include "fmore/core/experiment.hpp"
#include "fmore/core/run_checkpoint.hpp"
#include "fmore/fl/metrics.hpp"
#include "fmore/mec/population_store.hpp"
#include "fmore/mec/shard_aggregator.hpp"
#include "fmore/stats/normalizer.hpp"
#include "fmore/stats/rng.hpp"
#include "fmore/util/fault_injector.hpp"
#include "fmore/util/json_ledger.hpp"

namespace {

using namespace fmore;
using clock_type = std::chrono::steady_clock;

constexpr std::size_t kWinners = 32;
constexpr double kDataHi = 150.0;
constexpr double kTimeoutS = 0.25;
constexpr std::size_t kMaxRespawns = 3;

double seconds_since(clock_type::time_point start) {
    return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// The simulator's market (Section V.A scoring/cost), solved once.
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

auction::WinnerDeterminationConfig wire_config() {
    auction::WinnerDeterminationConfig wd;
    wd.num_winners = kWinners;
    wd.tie_break = auction::TieBreak::salted;
    wd.full_ranking = false;
    return wd;
}

bool outcomes_equal(const auction::AuctionOutcome& a,
                    const auction::AuctionOutcome& b) {
    if (a.winners.size() != b.winners.size()) return false;
    for (std::size_t w = 0; w < a.winners.size(); ++w) {
        if (a.winners[w].node != b.winners[w].node
            || a.winners[w].score != b.winners[w].score
            || a.winners[w].payment != b.winners[w].payment)
            return false;
    }
    if (a.ranking.size() != b.ranking.size()) return false;
    for (std::size_t r = 0; r < a.ranking.size(); ++r) {
        if (a.ranking[r].bid.node != b.ranking[r].bid.node
            || a.ranking[r].score != b.ranking[r].score)
            return false;
    }
    return true;
}

struct PlanSpec {
    const char* name;
    const char* plan;  ///< FaultInjector::from_spec grammar; "" = clean
};

struct MatrixRow {
    std::string name;
    std::string plan;
    std::size_t rounds = 0;
    std::size_t rounds_degraded = 0;
    std::size_t evictions = 0;
    std::size_t respawns = 0;
    std::size_t retired = 0;
    std::size_t corrupt_frames = 0;
    std::size_t frame_retries = 0;
    double mean_recovery_rounds = 0.0;
    std::size_t max_recovery_rounds = 0;
    bool bit_identity_after_rejoin = true;
    std::size_t clean_rounds_compared = 0;
};

MatrixRow run_plan(const PlanSpec& plan_spec, const Market& market, std::size_t n,
                   std::size_t shards, std::size_t rounds, std::uint64_t seed) {
    MatrixRow row;
    row.name = plan_spec.name;
    row.plan = plan_spec.plan;
    row.rounds = rounds;

    mec::ShardSupervisorConfig sup;
    if (plan_spec.plan[0] != '\0')
        sup.faults = util::FaultInjector::from_spec(plan_spec.plan);
    sup.max_respawns = kMaxRespawns;

    const auction::WinnerDeterminationConfig wd = wire_config();
    mec::ProcessShardAggregator faulty(make_store(n, market, seed), *market.scoring,
                                       *market.strategy, wd,
                                       {mec::ResourceDim::data_size,
                                        mec::ResourceDim::category_proportion},
                                       shards, kTimeoutS, sup);
    mec::ProcessShardAggregator clean(make_store(n, market, seed), *market.scoring,
                                      *market.strategy, wd,
                                      {mec::ResourceDim::data_size,
                                       mec::ResourceDim::category_proportion},
                                      shards, /*shard_timeout_s=*/30.0);

    stats::Rng rng_faulty(seed ^ 0xf00dULL);
    stats::Rng rng_clean(seed ^ 0xf00dULL);
    // down_since[s]: the round shard s stopped contributing, 0 = contributing.
    std::vector<std::size_t> down_since(shards, 0);
    std::vector<std::size_t> recoveries;
    for (std::size_t round = 1; round <= rounds; ++round) {
        const auction::AuctionOutcome& b =
            faulty.run_round(round, kWinners, rng_faulty);
        const auction::AuctionOutcome& a = clean.run_round(round, kWinners, rng_clean);

        const std::vector<std::size_t>& dropped = faulty.last_dropped_shards();
        if (!dropped.empty()) ++row.rounds_degraded;
        for (std::size_t s = 0; s < shards; ++s) {
            const bool down =
                std::binary_search(dropped.begin(), dropped.end(), s);
            if (down && down_since[s] == 0) down_since[s] = round;
            if (!down && down_since[s] != 0) {
                recoveries.push_back(round - down_since[s]);
                down_since[s] = 0;
            }
        }
        if (dropped.empty()) {
            ++row.clean_rounds_compared;
            if (!outcomes_equal(a, b)) row.bit_identity_after_rejoin = false;
        }
    }
    const mec::ShardHealth& lifetime = faulty.lifetime_health();
    row.evictions = lifetime.evictions;
    row.respawns = lifetime.respawns;
    row.retired = shards - faulty.live_shards();
    row.corrupt_frames = lifetime.corrupt_frames;
    row.frame_retries = lifetime.frame_retries;
    if (!recoveries.empty()) {
        std::size_t sum = 0;
        for (const std::size_t r : recoveries) {
            sum += r;
            row.max_recovery_rounds = std::max(row.max_recovery_rounds, r);
        }
        row.mean_recovery_rounds =
            static_cast<double>(sum) / static_cast<double>(recoveries.size());
    }
    return row;
}

// ---------------------------------------------------------------------------
// fork_memory: a forked child's VmHWM starts at its parent's resident set,
// so whatever the coordinator holds when it forks is charged to every
// worker. Measured first in the process: VmHWM is a lifetime peak, and an
// earlier row would raise the coordinator's baseline.
// ---------------------------------------------------------------------------

constexpr std::size_t kForkShards = 4;
constexpr std::size_t kForkRounds = 2;
/// Bound on the anonymous memory a worker holds of its own, in shares of
/// the store (store / kForkShards).
constexpr double kWorkerHeldShares = 0.75;
/// Bound on the coordinator's peak growth with a respawn budget, in stores:
/// midway between narrowed respawn sources (about 0.46) and full-width
/// ones (about 1.0).
constexpr double kRespawnSourceStores = 0.75;

/// One `/proc/<pid>/status` field ("VmHWM:", "VmRSS:", "RssAnon:") in MiB.
/// @throws std::runtime_error when the process or the field cannot be read
double status_mb(const std::string& pid, const char* field) {
    std::ifstream in("/proc/" + pid + "/status");
    const std::size_t len = std::strlen(field);
    std::string line;
    while (std::getline(in, line))
        if (line.compare(0, len, field) == 0)
            return static_cast<double>(std::atol(line.c_str() + len)) / 1024.0;
    throw std::runtime_error("fault_matrix: cannot read " + std::string(field)
                             + " from /proc/" + pid + "/status");
}

struct ForkMemoryRow {
    std::size_t max_respawns = 0;
    double store_mb = 0.0;              ///< the nine double columns
    double coordinator_extra_mb = 0.0;  ///< coordinator VmHWM growth
    double worker_hwm_mb_max = 0.0;     ///< largest worker VmHWM
    double worker_extra_mb_max = 0.0;   ///< worker_hwm_mb_max - coordinator VmRSS before
    /// Largest worker RssAnon less what it inherited: the coordinator's
    /// RssAnon before construction without the store.
    double worker_held_mb_max = 0.0;
    double sum_hwm_mb = 0.0;            ///< coordinator + every worker
    std::size_t workers_read = 0;       ///< live workers, whose VmHWM was read
};

/// Construct the aggregator over `store`, run kForkRounds clean rounds, and
/// read every process's VmHWM while the workers are still alive.
ForkMemoryRow measure_fork_memory(const mec::PopulationStore& store, const Market& market,
                                  std::size_t max_respawns, std::uint64_t seed) {
    ForkMemoryRow row;
    row.max_respawns = max_respawns;
    row.store_mb = 9.0 * static_cast<double>(store.size() * sizeof(double))
                   / (1024.0 * 1024.0);
    const double rss_before = status_mb("self", "VmRSS:");
    const double hwm_before = status_mb("self", "VmHWM:");
    const double inherited_anon = status_mb("self", "RssAnon:") - row.store_mb;
    mec::ShardSupervisorConfig sup;
    sup.max_respawns = max_respawns;
    mec::ProcessShardAggregator aggregator(store, *market.scoring, *market.strategy,
                                           wire_config(),
                                           {mec::ResourceDim::data_size,
                                            mec::ResourceDim::category_proportion},
                                           kForkShards, /*shard_timeout_s=*/30.0, sup);
    stats::Rng rng(seed);
    for (std::size_t round = 1; round <= kForkRounds; ++round)
        (void)aggregator.run_round(round, kWinners, rng);
    const double hwm_after = status_mb("self", "VmHWM:");
    row.coordinator_extra_mb = hwm_after - hwm_before;
    row.sum_hwm_mb = hwm_after;
    for (std::size_t s = 0; s < kForkShards; ++s) {
        const int pid = aggregator.worker_pid(s);
        if (pid <= 0) continue;  // evicted: its peak went with it
        const double hwm = status_mb(std::to_string(pid), "VmHWM:");
        const double held = status_mb(std::to_string(pid), "RssAnon:") - inherited_anon;
        row.worker_hwm_mb_max =
            row.workers_read == 0 ? hwm : std::max(row.worker_hwm_mb_max, hwm);
        row.worker_held_mb_max =
            row.workers_read == 0 ? held : std::max(row.worker_held_mb_max, held);
        ++row.workers_read;
        row.sum_hwm_mb += hwm;
    }
    // Negative once workers hold less than the coordinator did.
    row.worker_extra_mb_max = row.worker_hwm_mb_max - rss_before;
    return row;
}

/// Both configs over one wire_1m store: without a respawn budget, then
/// with `max_respawns = 1`. The second config's coordinator growth is
/// measured over the first config's peak.
std::vector<ForkMemoryRow> run_fork_memory(std::size_t n, std::uint64_t seed) {
    const Market market(n);
    const mec::PopulationStore store = make_store(n, market, seed);
    return {measure_fork_memory(store, market, 0, seed),
            measure_fork_memory(store, market, 1, seed)};
}

// ---------------------------------------------------------------------------
// coordinator_crash: the durable-run scenario. A checkpointed trial runs to
// completion, a mid-run checkpoint is re-loaded as if the coordinator had
// been SIGKILLed there, and the resumed run's full metrics tape is diffed
// field-exact against the reference — `resume_bit_identical` is the
// headline durability invariant, `recovery_rounds` the work replayed.
// ---------------------------------------------------------------------------

struct CrashRow {
    std::size_t rounds = 0;
    std::size_t kill_round = 0;       ///< checkpoint the resume starts from
    std::size_t recovery_rounds = 0;  ///< rounds re-executed after resume
    bool resume_bit_identical = false;
    double resume_s = 0.0;  ///< wall-clock of restore + replay
};

bool tapes_equal(const std::vector<fl::RoundMetrics>& a,
                 const std::vector<fl::RoundMetrics>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const fl::RoundMetrics& x = a[i];
        const fl::RoundMetrics& y = b[i];
        if (x.round != y.round || x.test_accuracy != y.test_accuracy
            || x.test_loss != y.test_loss || x.train_loss != y.train_loss
            || x.mean_winner_payment != y.mean_winner_payment
            || x.mean_winner_score != y.mean_winner_score
            || x.round_seconds != y.round_seconds
            || x.aggregated_updates != y.aggregated_updates
            || x.dropped_shards != y.dropped_shards
            || x.selection.close_reason != y.selection.close_reason
            || x.selection.close_time_s != y.selection.close_time_s)
            return false;
        if (x.selection.selected.size() != y.selection.selected.size())
            return false;
        for (std::size_t j = 0; j < x.selection.selected.size(); ++j) {
            if (x.selection.selected[j].client != y.selection.selected[j].client
                || x.selection.selected[j].payment
                       != y.selection.selected[j].payment
                || x.selection.selected[j].score
                       != y.selection.selected[j].score)
                return false;
        }
    }
    return true;
}

CrashRow run_coordinator_crash(bool smoke) {
    namespace fs = std::filesystem;
    const fs::path scratch =
        fs::temp_directory_path()
        / ("fmore_fault_matrix_" + std::to_string(::getpid()));
    fs::create_directories(scratch);

    core::ExperimentSpec spec =
        core::default_experiment(core::DatasetKind::mnist_o);
    spec.seed = 0x2026ULL;
    spec.population.num_nodes = smoke ? 12 : 40;
    spec.population.data_lo = 10;
    spec.population.data_hi = 40;
    spec.auction.winners = smoke ? 4 : 8;
    spec.training.train_samples = smoke ? 400 : 2000;
    spec.training.test_samples = smoke ? 120 : 400;
    spec.training.rounds = smoke ? 6 : 12;
    spec.training.eval_cap = 200;
    spec.timing.checkpoint_every = 2;
    spec.timing.checkpoint_dir = (scratch / "ckpt").string();
    // Keep every cadence point so the mid-run checkpoint survives retention
    // until the resume leg re-loads it.
    spec.timing.checkpoint_keep = spec.training.rounds;

    CrashRow row;
    row.rounds = spec.training.rounds;
    // Mid-run, rounded up onto the checkpoint cadence.
    row.kill_round = spec.training.rounds / 2;
    row.kill_round += row.kill_round % spec.timing.checkpoint_every;
    row.recovery_rounds = spec.training.rounds - row.kill_round;

    core::ExperimentTrial reference_trial(spec, /*trial_index=*/0);
    const fl::RunResult reference =
        reference_trial.run_resumable("fmore", nullptr);

    const auto start = clock_type::now();
    const core::RunCheckpoint ckpt = core::load_checkpoint(
        core::checkpoint_run_dir(spec.timing.checkpoint_dir, "fmore", 0) + "/"
        + core::checkpoint_filename(row.kill_round));
    core::ExperimentTrial resumed_trial(spec, /*trial_index=*/0);
    const fl::RunResult resumed = resumed_trial.run_resumable("fmore", &ckpt);
    row.resume_s = seconds_since(start);

    row.resume_bit_identical = tapes_equal(reference.rounds, resumed.rounds);
    std::error_code ec;
    fs::remove_all(scratch, ec);
    return row;
}

// ---------------------------------------------------------------------------
// Ledger I/O: splice the `faults` section into BENCH_scale.json via the
// section-bounded helpers (util/json_ledger.hpp) — the section is replaced
// in place wherever it sits, so the order the co-owning benches run in is
// irrelevant.
// ---------------------------------------------------------------------------

std::string render_section(const std::vector<MatrixRow>& rows,
                           const std::vector<ForkMemoryRow>& fork, std::size_t fork_n,
                           const CrashRow& crash, bool smoke, std::size_t n,
                           std::size_t shards, std::size_t rounds) {
    std::ostringstream out;
    char buf[768];
    std::snprintf(buf, sizeof buf,
                  "\"faults\": {\n"
                  "    \"smoke\": %s,\n"
                  "    \"n\": %zu,\n"
                  "    \"k\": %zu,\n"
                  "    \"shards\": %zu,\n"
                  "    \"rounds\": %zu,\n"
                  "    \"timeout_s\": %.4g,\n"
                  "    \"max_respawns\": %zu,\n"
                  "    \"rows\": [\n",
                  smoke ? "true" : "false", n, kWinners, shards, rounds, kTimeoutS,
                  kMaxRespawns);
    out << buf;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const MatrixRow& row = rows[i];
        std::snprintf(
            buf, sizeof buf,
            "      {\"name\": \"%s\", \"plan\": \"%s\", \"rounds\": %zu, "
            "\"rounds_degraded\": %zu, \"evictions\": %zu, \"respawns\": %zu, "
            "\"retired\": %zu, \"corrupt_frames\": %zu, \"frame_retries\": %zu, "
            "\"mean_recovery_rounds\": %.4g, \"max_recovery_rounds\": %zu, "
            "\"bit_identity_after_rejoin\": %s, \"clean_rounds_compared\": %zu}%s\n",
            row.name.c_str(), row.plan.c_str(), row.rounds, row.rounds_degraded,
            row.evictions, row.respawns, row.retired, row.corrupt_frames,
            row.frame_retries, row.mean_recovery_rounds, row.max_recovery_rounds,
            row.bit_identity_after_rejoin ? "true" : "false",
            row.clean_rounds_compared, i + 1 < rows.size() ? "," : "");
        out << buf;
    }
    out << "    ],\n";
    std::snprintf(buf, sizeof buf,
                  "    \"fork_memory\": {\"n\": %zu, \"shards\": %zu, \"rounds\": %zu, "
                  "\"configs\": [\n",
                  fork_n, kForkShards, kForkRounds);
    out << buf;
    for (std::size_t i = 0; i < fork.size(); ++i) {
        const ForkMemoryRow& f = fork[i];
        std::snprintf(buf, sizeof buf,
                      "      {\"max_respawns\": %zu, \"store_mb\": %.4g, "
                      "\"coordinator_extra_mb\": %.4g, \"worker_hwm_mb_max\": %.4g, "
                      "\"worker_extra_mb_max\": %.4g, \"worker_held_mb_max\": %.4g, "
                      "\"sum_hwm_mb\": %.4g}%s\n",
                      f.max_respawns, f.store_mb, f.coordinator_extra_mb,
                      f.worker_hwm_mb_max, f.worker_extra_mb_max, f.worker_held_mb_max,
                      f.sum_hwm_mb, i + 1 < fork.size() ? "," : "");
        out << buf;
    }
    out << "    ]},\n";
    std::snprintf(buf, sizeof buf,
                  "    \"coordinator_crash\": {\"rounds\": %zu, "
                  "\"kill_round\": %zu, \"recovery_rounds\": %zu, "
                  "\"resume_bit_identical\": %s, \"resume_s\": %.4g}\n  }",
                  crash.rounds, crash.kill_round, crash.recovery_rounds,
                  crash.resume_bit_identical ? "true" : "false",
                  crash.resume_s);
    out << buf;
    return out.str();
}

void write_ledger(const std::string& path, const std::string& section) {
    std::string text;
    {
        std::ifstream in(path);
        if (in) {
            std::stringstream buffer;
            buffer << in.rdbuf();
            text = buffer.str();
        }
    }
    const std::string merged =
        util::splice_ledger_section(std::move(text), "faults", section);

    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        std::cerr << "fault_matrix: cannot write " << path << '\n';
        std::exit(1);
    }
    out << merged;
    std::cout << "\nwrote the faults section of " << path << '\n';
}

/// Gate fresh rows and the committed ledger on semantics (no timing):
/// every fresh row keeps bit-identity on its clean rounds; plans with
/// positive corruption rates detected (and only detected) their corrupt
/// frames; plans with positive crash rates evicted AND respawned workers;
/// the fresh fork_memory ratios hold; the committed section exists with
/// the fork_memory object and every fresh row name present and
/// bit-identical.
bool check_against(const std::string& text, const std::vector<MatrixRow>& rows,
                   const std::vector<ForkMemoryRow>& fork, const CrashRow& crash) {
    bool ok = true;
    const std::string section = util::extract_ledger_section(text, "faults");
    if (section.empty()) {
        std::cerr << "fault_matrix --check: committed ledger has no \"faults\""
                     " section\n";
        return false;
    }
    if (section.find("\"fork_memory\"") == std::string::npos) {
        std::cerr << "fault_matrix --check: committed faults section has no"
                     " fork_memory object\n";
        ok = false;
    }
    for (const ForkMemoryRow& f : fork) {
        const std::string config = "fork_memory (max_respawns = "
                                   + std::to_string(f.max_respawns) + ")";
        if (f.workers_read != kForkShards) {
            std::cerr << "fault_matrix --check: " << config << " read the peak of "
                      << f.workers_read << " of " << kForkShards << " workers\n";
            ok = false;
        }
        if (f.max_respawns == 0 && !(f.coordinator_extra_mb < f.store_mb / 4.0)) {
            std::cerr << "fault_matrix --check: " << config << ": the coordinator's"
                         " peak grew by " << f.coordinator_extra_mb
                      << " MiB, not under a quarter of the " << f.store_mb
                      << " MiB store\n";
            ok = false;
        }
        // With a respawn budget the coordinator keeps the pristine splits,
        // narrowed like the workers' own shards: 33 of the store's 72 bytes
        // a row at d = 2.
        if (f.max_respawns > 0
            && !(f.coordinator_extra_mb < kRespawnSourceStores * f.store_mb)) {
            std::cerr << "fault_matrix --check: " << config << ": the coordinator's"
                         " peak grew by " << f.coordinator_extra_mb << " MiB, not under "
                      << kRespawnSourceStores << " times the " << f.store_mb
                      << " MiB store: its respawn sources are not narrowed\n";
            ok = false;
        }
        if (!(f.worker_extra_mb_max < f.store_mb / 2.0)) {
            std::cerr << "fault_matrix --check: " << config << ": a worker peaked "
                      << f.worker_extra_mb_max
                      << " MiB above the coordinator's resident set, not under half"
                         " the " << f.store_mb << " MiB store\n";
            ok = false;
        }
        // A worker that still maps the caller's store peaks near the
        // coordinator's resident set; one that maps only its own rows peaks
        // near that set without the store.
        const double over_lean_mb = f.worker_extra_mb_max + f.store_mb;
        if (!(over_lean_mb < f.store_mb / 2.0)) {
            std::cerr << "fault_matrix --check: " << config << ": a worker peaked "
                      << over_lean_mb
                      << " MiB above the coordinator's resident set without the"
                         " store, not under half the " << f.store_mb
                      << " MiB store: it carries the caller's store\n";
            ok = false;
        }
        // A narrowed worker holds 33 of its share's 72 bytes a row at d = 2
        // (theta, the two layout columns, the data cap and a draw byte) and a
        // bounded head. One that keeps all nine columns holds about a share,
        // and a bid frame over its rows adds 33 bytes a row more.
        const double share_mb = f.store_mb / static_cast<double>(kForkShards);
        if (!(f.worker_held_mb_max < kWorkerHeldShares * share_mb)) {
            std::cerr << "fault_matrix --check: " << config << ": a worker holds "
                      << f.worker_held_mb_max << " MiB of its own, not under "
                      << kWorkerHeldShares << " times its " << share_mb
                      << " MiB share of the store: it keeps columns its bids do not"
                         " read, or a per-row buffer\n";
            ok = false;
        }
    }
    if (!crash.resume_bit_identical) {
        std::cerr << "fault_matrix --check: coordinator_crash resume diverged"
                     " from the uninterrupted reference run\n";
        ok = false;
    }
    const std::size_t crash_at = section.find("\"coordinator_crash\"");
    if (crash_at == std::string::npos) {
        std::cerr << "fault_matrix --check: committed faults section has no"
                     " coordinator_crash scenario\n";
        ok = false;
    } else if (section.find("\"resume_bit_identical\": true", crash_at)
               == std::string::npos) {
        std::cerr << "fault_matrix --check: committed coordinator_crash lacks"
                     " resume_bit_identical = true\n";
        ok = false;
    }
    for (const MatrixRow& row : rows) {
        if (!row.bit_identity_after_rejoin || row.clean_rounds_compared == 0) {
            std::cerr << "fault_matrix --check: plan '" << row.name
                      << "' diverged from the never-faulted twin on a round with"
                         " all shards live (or never had one)\n";
            ok = false;
        }
        const bool wants_corruption =
            row.plan.find("corrupt=") != std::string::npos
            || row.plan.find("truncate=") != std::string::npos;
        if (wants_corruption && (row.corrupt_frames == 0 || row.frame_retries == 0)) {
            std::cerr << "fault_matrix --check: plan '" << row.name
                      << "' injected corrupt frames but none were detected/"
                         "retried\n";
            ok = false;
        }
        const bool wants_crashes = row.plan.find("crash=") != std::string::npos;
        if (wants_crashes && (row.evictions == 0 || row.respawns == 0)) {
            std::cerr << "fault_matrix --check: plan '" << row.name
                      << "' injected crashes but the supervisor recorded no"
                         " eviction+respawn cycle\n";
            ok = false;
        }
        const std::string tag = "\"name\": \"" + row.name + "\"";
        const std::size_t at = section.find(tag);
        if (at == std::string::npos) {
            std::cerr << "fault_matrix --check: committed faults section is"
                         " missing plan '" << row.name << "'\n";
            ok = false;
            continue;
        }
        const std::size_t end = section.find('}', at);
        if (section.substr(at, end - at)
                .find("\"bit_identity_after_rejoin\": true")
            == std::string::npos) {
            std::cerr << "fault_matrix --check: committed plan '" << row.name
                      << "' lacks bit_identity_after_rejoin = true\n";
            ok = false;
        }
    }
    if (ok)
        std::cout << "--check: faults section present, bit-identity, detection"
                     " and fork-memory gates hold\n";
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
            std::cerr << "usage: fault_matrix [--smoke] [--out path.json]"
                         " [--check committed.json]\n";
            return 1;
        }
    }
    if (out_path.empty()) out_path = smoke ? "BENCH_scale_smoke.json" : "BENCH_scale.json";

    const std::size_t n = smoke ? 6'000 : 20'000;
    const std::size_t shards = smoke ? 4 : 8;
    const std::size_t rounds = smoke ? 6 : 14;
    const std::uint64_t seed = 0x17ULL;

    // First, before any other row allocates: VmHWM is a lifetime peak.
    const std::size_t fork_n = smoke ? 200'000 : 1'000'000;
    const std::vector<ForkMemoryRow> fork = run_fork_memory(fork_n, seed);
    std::cout << "fork_memory: N=" << fork_n << " shards=" << kForkShards << '\n';
    for (const ForkMemoryRow& f : fork)
        std::printf("  max_respawns %zu  store %.2f MiB  coordinator %+.2f MiB  "
                    "worker %.2f MiB, %+.2f MiB, holds %.2f MiB (max)  "
                    "sum of peaks %.1f MiB\n",
                    f.max_respawns, f.store_mb, f.coordinator_extra_mb,
                    f.worker_hwm_mb_max, f.worker_extra_mb_max, f.worker_held_mb_max,
                    f.sum_hwm_mb);
    std::cout << '\n';

    // The matrix: one clean baseline, crash churn at two rates, wire
    // corruption, and a flaky-latency mix. Rates are per shard-round.
    const std::vector<PlanSpec> plans = {
        {"clean", ""},
        {"crash_5", "seed=17,crash=0.05"},
        {"crash_15", "seed=17,crash=0.15"},
        {"corrupt", "seed=19,corrupt=0.1,truncate=0.05"},
        {"flaky", "seed=23,stall=0.08,stall_s=1,delay=0.15,delay_s=0.005"},
    };

    std::cout << "fault_matrix: N=" << n << " K=" << kWinners << " shards="
              << shards << " rounds=" << rounds << " timeout=" << kTimeoutS
              << "s max_respawns=" << kMaxRespawns << (smoke ? " (smoke)" : "")
              << "\n\n";
    const Market market(n);
    std::vector<MatrixRow> rows;
    rows.reserve(plans.size());
    for (const PlanSpec& plan : plans) {
        MatrixRow row = run_plan(plan, market, n, shards, rounds, seed);
        std::printf(
            "  %-9s degraded %2zu/%zu  evict %2zu  respawn %2zu  retired %zu  "
            "corrupt %2zu  retries %2zu  recover %.2f rds  identical %s\n",
            row.name.c_str(), row.rounds_degraded, row.rounds, row.evictions,
            row.respawns, row.retired, row.corrupt_frames, row.frame_retries,
            row.mean_recovery_rounds, row.bit_identity_after_rejoin ? "yes" : "NO");
        rows.push_back(std::move(row));
    }

    const CrashRow crash = run_coordinator_crash(smoke);
    std::printf(
        "  %-9s killed at round %zu/%zu  replayed %zu rds in %.2fs  "
        "identical %s\n",
        "coordinator_crash", crash.kill_round, crash.rounds,
        crash.recovery_rounds, crash.resume_s,
        crash.resume_bit_identical ? "yes" : "NO");

    bool ok = true;
    if (!check_path.empty()) {
        std::ifstream in(check_path);
        if (!in) {
            std::cerr << "fault_matrix --check: cannot read " << check_path << '\n';
            ok = false;
        } else {
            std::stringstream buffer;
            buffer << in.rdbuf();
            ok = check_against(buffer.str(), rows, fork, crash);
        }
    }
    if (check_path.empty() || out_path != check_path)
        write_ledger(out_path,
                     render_section(rows, fork, fork_n, crash, smoke, n, shards, rounds));
    else
        std::cout << "(--check against the --out target: ledger left as"
                     " committed)\n";
    return ok ? 0 : 1;
}
