// Pins short 1-trial tapes of the presets that cover each engine and market
// path to recorded constants: the monolithic selector on the simulator and
// on the testbed's wall clock, the sharded market's fused lane (with a shard
// dropped by its fault plan) and its gather lane, the streaming selector
// with its sharded close and adaptive quorum, psi-FMore, second-score
// payments, and a run resumed from a checkpoint. DeterminismGolden and
// CrashResume compare a run with its own twin, so a change that moves both
// twins at once (a tie-break, a draw order, a summation order) passes
// them; it fails here.
//
// The digest covers each round's metrics and SelectionRecord, doubles by
// bit pattern; not the spec text and no file. The runs draw through
// stats::Rng, whose distributions the standard leaves to the C++ library,
// and their losses call std::exp and std::log, so the constants are those
// of a libstdc++ and glibc build, on any IEEE-754 machine.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "fmore/core/experiment.hpp"
#include "fmore/core/run_checkpoint.hpp"
#include "fmore/core/scenarios.hpp"
#include "fmore/fl/metrics.hpp"

namespace fmore::core {
namespace {

/// 64-bit FNV-1a, low byte first.
class Digest {
public:
    void add(std::uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (value >> (8 * byte)) & 0xFFU;
            hash_ *= 0x100000001b3ULL;
        }
    }
    void add(double value) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        add(bits);
    }
    void add(const std::string& text) {
        add(std::uint64_t{text.size()});
        for (const char c : text) {
            hash_ ^= static_cast<unsigned char>(c);
            hash_ *= 0x100000001b3ULL;
        }
    }
    template <typename T>
    void add_all(const std::vector<T>& values) {
        add(std::uint64_t{values.size()});
        for (const T& value : values) add(value);
    }
    [[nodiscard]] std::uint64_t value() const { return hash_; }

private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t tape_digest(const fl::RunResult& run) {
    Digest d;
    d.add(std::uint64_t{run.rounds.size()});
    for (const fl::RoundMetrics& m : run.rounds) {
        d.add(std::uint64_t{m.round});
        d.add(m.test_accuracy);
        d.add(m.test_loss);
        d.add(m.train_loss);
        d.add(m.mean_winner_payment);
        d.add(m.mean_winner_score);
        d.add(m.round_seconds);
        d.add(std::uint64_t{m.aggregated_updates});
        d.add(m.mean_staleness);
        d.add(std::uint64_t{m.dropped_shards});
        const fl::SelectionRecord& s = m.selection;
        d.add(std::uint64_t{s.selected.size()});
        for (const fl::SelectedClient& c : s.selected) {
            d.add(std::uint64_t{c.client});
            d.add(c.payment);
            d.add(c.score);
            d.add(std::uint64_t{c.train_samples.has_value()});
            d.add(std::uint64_t{c.train_samples.value_or(0)});
        }
        d.add_all(s.all_scores);
        d.add_all(s.scores_by_node);
        d.add_all(s.dropped_shards);
        d.add(std::uint64_t{s.shard_health.live_shards});
        d.add(std::uint64_t{s.shard_health.corrupt_frames});
        d.add(std::uint64_t{s.shard_health.frame_retries});
        d.add(std::uint64_t{s.shard_health.evictions});
        d.add(std::uint64_t{s.shard_health.respawns});
        d.add(s.close_reason);
        d.add(s.close_time_s);
        d.add(std::uint64_t{s.arrived_bids});
        d.add(std::uint64_t{s.bid_quorum});
    }
    return d.value();
}

ExperimentSpec preset(const std::string& name, std::size_t rounds) {
    ExperimentSpec spec = named_scenario(name);
    spec.training.rounds = rounds;
    return spec;
}

std::uint64_t run_digest(const ExperimentSpec& spec, const std::string& policy = "fmore") {
    ExperimentTrial trial(spec, /*trial_index=*/0);
    return tape_digest(trial.run(policy));
}

std::string hex(std::uint64_t value) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
    return buf;
}

constexpr std::uint64_t kSimDefault = 0x562e3009c82cc6d8ULL;
constexpr std::uint64_t kTestbedDefault = 0xa344615aff858f9eULL;
constexpr std::uint64_t kFaultsChurn = 0xf2a5e075b03de8aeULL;
constexpr std::uint64_t kFaultsChurnGather = 0x0b2a689ec80d2552ULL;
constexpr std::uint64_t kStreamSharded = 0x910058b6d9fe1a8aULL;
constexpr std::uint64_t kFig11PsiFmore = 0x319d0b9295f47279ULL;
constexpr std::uint64_t kSecondScore = 0x155c62e19b425190ULL;

TEST(TapePin, SimDefaultMonolithicSelector) {
    EXPECT_EQ(hex(kSimDefault), hex(run_digest(preset("sim/default", 2))));
}

TEST(TapePin, TestbedDefaultOnTheWallClock) {
    EXPECT_EQ(hex(kTestbedDefault), hex(run_digest(preset("testbed/default", 2))));
}

/// Three rounds of `faults/churn`, whose plan drops a shard in one of them.
fl::RunResult churn_run(const std::string& latency_discount) {
    ExperimentSpec spec = preset("faults/churn", 3);
    apply_key_value(spec, "auction.latency_discount", latency_discount);
    ExperimentTrial trial(spec, 0);
    fl::RunResult run = trial.run("fmore");
    EXPECT_EQ(run.health().rounds_degraded, 1u);
    return run;
}

TEST(TapePin, FaultsChurnFusedLaneDropsAShard) {
    EXPECT_EQ(hex(kFaultsChurn), hex(tape_digest(churn_run("0"))));
}

/// A latency discount selects the `latency_discounted` mechanism, which
/// the sharded market runs over one gathered frame.
TEST(TapePin, FaultsChurnGatherLaneDropsAShard) {
    EXPECT_EQ(hex(kFaultsChurnGather), hex(tape_digest(churn_run("0.5"))));
}

TEST(TapePin, StreamShardedCloseAndAdaptiveQuorum) {
    EXPECT_EQ(hex(kStreamSharded), hex(run_digest(preset("stream/sharded", 2))));
}

TEST(TapePin, Fig11UnderPsiFmore) {
    EXPECT_EQ(hex(kFig11PsiFmore), hex(run_digest(preset("paper/fig11", 2), "psi_fmore")));
}

TEST(TapePin, SecondScoreAblation) {
    EXPECT_EQ(hex(kSecondScore), hex(run_digest(preset("ablation/second_score", 2))));
}

TEST(TapePin, ResumedRunReadsTheUninterruptedConstant) {
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / ("fmore_tape_pin_" + std::to_string(::getpid()));
    ExperimentSpec spec = preset("sim/default", 2);
    spec.timing.checkpoint_every = 1;
    spec.timing.checkpoint_dir = dir.string();
    {
        ExperimentTrial full(spec, 0);
        EXPECT_EQ(hex(kSimDefault), hex(tape_digest(full.run_resumable("fmore", nullptr))));
    }
    const RunCheckpoint first = load_checkpoint(
        checkpoint_run_dir(spec.timing.checkpoint_dir, "fmore", 0) + "/"
        + checkpoint_filename(1));
    ASSERT_EQ(first.completed_rounds, 1u);
    ExperimentTrial resumed(spec, 0);
    EXPECT_EQ(hex(kSimDefault), hex(tape_digest(resumed.run_resumable("fmore", &first))));
    std::error_code ec;
    fs::remove_all(dir, ec);
}

} // namespace
} // namespace fmore::core
