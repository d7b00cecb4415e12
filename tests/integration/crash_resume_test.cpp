// The crash-recovery harness — the durability headline under test:
// SIGKILL the coordinator at any round, including from inside a
// checkpoint write, resume from disk, and winners / payments / metrics /
// health are bit-identical to a never-interrupted twin. The kill legs run
// in a dedicated child process (crash_resume_child.cpp — forking this
// binary with its live thread pool would deadlock); the resume and twin
// legs run in-process and are compared field-exact, across the sync,
// sharded, async and streaming(+adaptive quorum) lanes.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "fmore/auction/mechanism.hpp"
#include "fmore/core/experiment.hpp"
#include "fmore/core/run_checkpoint.hpp"
#include "fmore/fl/metrics.hpp"
#include "fmore/util/snapshot.hpp"

namespace fmore::core {
namespace {

namespace fs = std::filesystem;

class TempDir {
public:
    TempDir() {
        static int counter = 0;
        dir_ = fs::temp_directory_path()
               / ("fmore_crash_resume_" + std::to_string(::getpid()) + "_"
                  + std::to_string(counter++));
        fs::create_directories(dir_);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    [[nodiscard]] std::string path(const std::string& name) const {
        return (dir_ / name).string();
    }
    [[nodiscard]] std::string str() const { return dir_.string(); }

private:
    fs::path dir_;
};

/// Path of the victim helper — it lands next to this suite's binary.
std::string child_path() {
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0) return "crash_resume_child";
    return (fs::path(std::string(buf, static_cast<std::size_t>(n)))
                .parent_path()
            / "crash_resume_child")
        .string();
}

/// Launch the victim; normalize death-by-signal to the shell convention
/// (128 + signo) so SIGKILL reads as 137 whether or not the shell exec'd
/// the command directly.
int run_child(const std::string& spec_file, const std::string& policy,
              std::size_t trial, bool resume) {
    std::string cmd = child_path() + " '" + spec_file + "' " + policy + " "
                      + std::to_string(trial);
    if (resume) cmd += " --resume";
    cmd += " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    if (status == -1) return -1;
    if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    return -2;
}

void write_spec_file(const std::string& path, const ExperimentSpec& spec) {
    std::ofstream out(path);
    out << to_text(spec);
}

/// Tiny simulator world — small enough that a six-round run is cheap,
/// big enough that every round still holds a real auction.
ExperimentSpec tiny_sim_spec(const std::string& checkpoint_dir) {
    ExperimentSpec spec = default_experiment(DatasetKind::mnist_o);
    spec.seed = 20260808;
    spec.population.num_nodes = 12;
    spec.population.data_lo = 10;
    spec.population.data_hi = 40;
    spec.auction.winners = 4;
    spec.training.train_samples = 400;
    spec.training.test_samples = 120;
    spec.training.rounds = 6;
    spec.training.eval_cap = 100;
    spec.timing.checkpoint_every = 2;
    spec.timing.checkpoint_dir = checkpoint_dir;
    spec.timing.checkpoint_keep = 3;
    return spec;
}

/// Tiny testbed twin of the above (wall-clock model, async/streaming lanes).
ExperimentSpec tiny_testbed_spec(const std::string& checkpoint_dir) {
    ExperimentSpec spec = default_testbed_experiment();
    spec.seed = 20260809;
    spec.population.num_nodes = 12;
    spec.population.data_lo = 10;
    spec.population.data_hi = 40;
    spec.auction.winners = 4;
    spec.training.train_samples = 400;
    spec.training.test_samples = 120;
    spec.training.rounds = 6;
    spec.training.eval_cap = 100;
    spec.timing.checkpoint_every = 2;
    spec.timing.checkpoint_dir = checkpoint_dir;
    spec.timing.checkpoint_keep = 3;
    return spec;
}

/// The spec as the uninterrupted twin runs it: no coordinator kill, no
/// checkpointing — everything a durable run does must be invisible here.
ExperimentSpec twin_of(ExperimentSpec spec) {
    spec.auction.fault_plan.clear();
    spec.timing.checkpoint_every = 0;
    spec.timing.checkpoint_dir.clear();
    return spec;
}

void expect_rounds_equal(const std::vector<fl::RoundMetrics>& a,
                         const std::vector<fl::RoundMetrics>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("round " + std::to_string(i + 1));
        const fl::RoundMetrics& x = a[i];
        const fl::RoundMetrics& y = b[i];
        EXPECT_EQ(x.round, y.round);
        EXPECT_EQ(x.test_accuracy, y.test_accuracy);
        EXPECT_EQ(x.test_loss, y.test_loss);
        EXPECT_EQ(x.train_loss, y.train_loss);
        EXPECT_EQ(x.mean_winner_payment, y.mean_winner_payment);
        EXPECT_EQ(x.mean_winner_score, y.mean_winner_score);
        EXPECT_EQ(x.round_seconds, y.round_seconds);
        EXPECT_EQ(x.aggregated_updates, y.aggregated_updates);
        EXPECT_EQ(x.mean_staleness, y.mean_staleness);
        EXPECT_EQ(x.dropped_shards, y.dropped_shards);
        ASSERT_EQ(x.selection.selected.size(), y.selection.selected.size());
        for (std::size_t j = 0; j < x.selection.selected.size(); ++j) {
            EXPECT_EQ(x.selection.selected[j].client,
                      y.selection.selected[j].client);
            EXPECT_EQ(x.selection.selected[j].payment,
                      y.selection.selected[j].payment);
            EXPECT_EQ(x.selection.selected[j].score,
                      y.selection.selected[j].score);
            EXPECT_EQ(x.selection.selected[j].train_samples,
                      y.selection.selected[j].train_samples);
        }
        EXPECT_EQ(x.selection.all_scores, y.selection.all_scores);
        EXPECT_EQ(x.selection.scores_by_node, y.selection.scores_by_node);
        EXPECT_EQ(x.selection.dropped_shards, y.selection.dropped_shards);
        EXPECT_EQ(x.selection.close_reason, y.selection.close_reason);
        EXPECT_EQ(x.selection.close_time_s, y.selection.close_time_s);
        EXPECT_EQ(x.selection.arrived_bids, y.selection.arrived_bids);
        EXPECT_EQ(x.selection.bid_quorum, y.selection.bid_quorum);
        EXPECT_EQ(x.selection.shard_health.live_shards,
                  y.selection.shard_health.live_shards);
        EXPECT_EQ(x.selection.shard_health.evictions,
                  y.selection.shard_health.evictions);
        EXPECT_EQ(x.selection.shard_health.respawns,
                  y.selection.shard_health.respawns);
        EXPECT_EQ(x.selection.shard_health.corrupt_frames,
                  y.selection.shard_health.corrupt_frames);
        EXPECT_EQ(x.selection.shard_health.frame_retries,
                  y.selection.shard_health.frame_retries);
    }
}

/// Full resume bit-identity inside one process: run the checkpointed spec
/// to completion, re-load the round-`resume_round` checkpoint, resume, and
/// demand the two tapes match field-exactly.
void expect_in_process_resume_identity(const ExperimentSpec& spec,
                                       const std::string& policy,
                                       std::size_t resume_round) {
    ExperimentTrial full(spec, /*trial_index=*/0);
    const fl::RunResult reference = full.run_resumable(policy, nullptr);
    ASSERT_EQ(reference.rounds.size(), spec.training.rounds);

    const std::string run_dir =
        checkpoint_run_dir(spec.timing.checkpoint_dir, policy, 0);
    const RunCheckpoint mid =
        load_checkpoint(run_dir + "/" + checkpoint_filename(resume_round));
    ASSERT_EQ(mid.completed_rounds, resume_round);

    ExperimentTrial resumed(spec, /*trial_index=*/0);
    const fl::RunResult result = resumed.run_resumable(policy, &mid);
    expect_rounds_equal(reference.rounds, result.rounds);
}

// ---------------------------------------------------------------------------
// Kill legs: a real process dies by SIGKILL and the run still finishes.
// ---------------------------------------------------------------------------

TEST(CrashResume, SigkillAtRoundThenResumeMatchesUninterruptedTwin) {
    TempDir tmp;
    ExperimentSpec spec = tiny_sim_spec(tmp.path("ckpt"));
    spec.auction.fault_plan = "ckill=3";
    const std::string spec_file = tmp.path("spec.txt");
    write_spec_file(spec_file, spec);

    // The victim dies by SIGKILL right after round 3's checkpoint.
    ASSERT_EQ(run_child(spec_file, "fmore", 0, /*resume=*/false), 137);
    const std::string run_dir =
        checkpoint_run_dir(spec.timing.checkpoint_dir, "fmore", 0);
    const auto latest = find_latest_valid(run_dir);
    ASSERT_TRUE(latest.has_value());
    EXPECT_EQ(latest->completed_rounds, 3u); // kill rounds force a save
    EXPECT_EQ(latest->policy, "fmore");

    // Resume in-process; the kill round is behind the checkpoint, so the
    // plan never re-fires. The twin never checkpointed and never died.
    ExperimentTrial resumed(spec, 0);
    const fl::RunResult result = resumed.run_resumable("fmore", &*latest);
    ASSERT_EQ(result.rounds.size(), spec.training.rounds);

    ExperimentTrial twin(twin_of(spec), 0);
    const fl::RunResult reference = twin.run_resumable("fmore", nullptr);
    expect_rounds_equal(reference.rounds, result.rounds);
}

TEST(CrashResume, SigkillMidCheckpointWriteNeverConsumesTornFile) {
    TempDir tmp;
    ExperimentSpec spec = tiny_sim_spec(tmp.path("ckpt"));
    spec.auction.fault_plan = "ckill_mid=4";
    const std::string spec_file = tmp.path("spec.txt");
    write_spec_file(spec_file, spec);

    ASSERT_EQ(run_child(spec_file, "fmore", 0, /*resume=*/false), 137);
    const std::string run_dir =
        checkpoint_run_dir(spec.timing.checkpoint_dir, "fmore", 0);
    // The round-4 write died halfway: its bytes sit in a `.tmp` the reader
    // never looks at, and the newest VALID checkpoint is still round 2.
    EXPECT_TRUE(
        fs::exists(run_dir + "/" + checkpoint_filename(4) + ".tmp"));
    EXPECT_FALSE(fs::exists(run_dir + "/" + checkpoint_filename(4)));
    const auto latest = find_latest_valid(run_dir);
    ASSERT_TRUE(latest.has_value());
    EXPECT_EQ(latest->completed_rounds, 2u);

    // Resume replays rounds 3..6 (including the one that died mid-write)
    // and still matches the twin bit-for-bit.
    ExperimentTrial resumed(spec, 0);
    const fl::RunResult result = resumed.run_resumable("fmore", &*latest);
    ExperimentTrial twin(twin_of(spec), 0);
    const fl::RunResult reference = twin.run_resumable("fmore", nullptr);
    expect_rounds_equal(reference.rounds, result.rounds);
}

TEST(CrashResume, ChildResumeFlagCompletesTheRunOutOfProcess) {
    // End-to-end shape of the CI smoke leg: kill, then a SECOND process
    // resumes via the same spec file, runs to completion and leaves a
    // final-round checkpoint whose tape matches the twin's.
    TempDir tmp;
    ExperimentSpec spec = tiny_sim_spec(tmp.path("ckpt"));
    spec.auction.fault_plan = "ckill=3";
    const std::string spec_file = tmp.path("spec.txt");
    write_spec_file(spec_file, spec);

    ASSERT_EQ(run_child(spec_file, "fmore", 0, /*resume=*/false), 137);
    ASSERT_EQ(run_child(spec_file, "fmore", 0, /*resume=*/true), 0);

    const std::string run_dir =
        checkpoint_run_dir(spec.timing.checkpoint_dir, "fmore", 0);
    const auto final_ckpt = find_latest_valid(run_dir);
    ASSERT_TRUE(final_ckpt.has_value());
    ASSERT_EQ(final_ckpt->completed_rounds, spec.training.rounds);

    ExperimentTrial twin(twin_of(spec), 0);
    const fl::RunResult reference = twin.run_resumable("fmore", nullptr);
    expect_rounds_equal(reference.rounds, final_ckpt->rounds);
}

// ---------------------------------------------------------------------------
// Lane sweep: mid-run resume is bit-identical in every coordinator lane.
// ---------------------------------------------------------------------------

TEST(CrashResume, SimulationSyncLaneResumesBitIdentically) {
    TempDir tmp;
    expect_in_process_resume_identity(tiny_sim_spec(tmp.path("ckpt")), "fmore",
                                      /*resume_round=*/2);
}

TEST(CrashResume, ShardedMarketLaneResumesBitIdentically) {
    TempDir tmp;
    ExperimentSpec spec = tiny_sim_spec(tmp.path("ckpt"));
    spec.auction.shards = 3;
    expect_in_process_resume_identity(spec, "fmore", /*resume_round=*/4);
}

TEST(CrashResume, AsyncLaneResumesWithInFlightCarry) {
    TempDir tmp;
    ExperimentSpec spec = tiny_testbed_spec(tmp.path("ckpt"));
    spec.timing.round_mode = fl::RoundMode::async;
    spec.timing.min_updates = 2;
    spec.timing.latency_spread = 0.4; // stragglers keep updates in flight
    expect_in_process_resume_identity(spec, "fmore", /*resume_round=*/2);
}

TEST(CrashResume, StreamingAdaptiveQuorumLaneResumesBitIdentically) {
    TempDir tmp;
    ExperimentSpec spec = tiny_testbed_spec(tmp.path("ckpt"));
    spec.timing.streaming = true;
    spec.timing.min_updates = 3;
    spec.timing.round_deadline_s = 30.0;
    spec.timing.adaptive_quorum = true;
    expect_in_process_resume_identity(spec, "fmore", /*resume_round=*/4);
}

TEST(CrashResume, EveryRegisteredMechanismResumesBitIdentically) {
    // The headline invariant holds per registered wire mechanism, not just
    // for the default: resume must replay the exact pricing rule, whatever
    // it is.
    for (const std::string& name :
         auction::MechanismRegistry::instance().names()) {
        SCOPED_TRACE("mechanism " + name);
        TempDir tmp;
        ExperimentSpec spec = tiny_sim_spec(tmp.path("ckpt"));
        spec.auction.mechanism = name;
        expect_in_process_resume_identity(spec, "fmore", /*resume_round=*/2);
    }
}

TEST(CrashResume, ShardFaultPlanSurvivesResume) {
    // Active shard faults + checkpointing: the injected drops replay
    // identically after a resume because the virtual-clock plan is pure in
    // (seed, shard, round).
    TempDir tmp;
    ExperimentSpec spec = tiny_sim_spec(tmp.path("ckpt"));
    spec.auction.shards = 3;
    spec.auction.shard_timeout_s = 1.0;
    spec.auction.fault_plan = "seed=5,crash=0.2";
    expect_in_process_resume_identity(spec, "fmore", /*resume_round=*/2);
}

// ---------------------------------------------------------------------------
// Guard rails
// ---------------------------------------------------------------------------

TEST(CrashResume, ResumeRejectsForeignCheckpoints) {
    TempDir tmp;
    const ExperimentSpec spec = tiny_sim_spec(tmp.path("ckpt"));
    ExperimentTrial trial(spec, 0);
    (void)trial.run_resumable("fmore", nullptr);
    const std::string run_dir =
        checkpoint_run_dir(spec.timing.checkpoint_dir, "fmore", 0);
    const auto ckpt = find_latest_valid(run_dir);
    ASSERT_TRUE(ckpt.has_value());

    // Wrong policy: the checkpoint names the run it belongs to.
    ExperimentTrial other_policy(spec, 0);
    EXPECT_THROW((void)other_policy.run_resumable("randfl", &*ckpt),
                 std::invalid_argument);

    // Wrong spec: a drifted seed must refuse to resume, not silently fork
    // the run's history.
    ExperimentSpec drifted = spec;
    drifted.seed += 1;
    ExperimentTrial other_spec(drifted, 0);
    EXPECT_THROW((void)other_spec.run_resumable("fmore", &*ckpt),
                 std::invalid_argument);
}

TEST(CrashResume, SpecFieldsTheEngineIgnoresSurviveTheCheckpoint) {
    // A checkpoint records the spec that ran, down to the fields its engine
    // never reads; anything less and the resume guard above would refuse a
    // checkpoint of this very experiment.
    TempDir tmp;
    ExperimentSpec sim = tiny_sim_spec(tmp.path("sim"));
    sim.timing.staleness_alpha = 0.25;
    sim.population.cpu_lo = 2.0;
    ExperimentSpec testbed = tiny_testbed_spec(tmp.path("testbed"));
    testbed.auction.alpha = 10.0;
    testbed.population.shards_hi = 3;
    for (const ExperimentSpec& spec : {sim, testbed}) {
        SCOPED_TRACE(to_string(spec.kind));
        ASSERT_TRUE(validate(spec).empty());
        expect_in_process_resume_identity(spec, "fmore", /*resume_round=*/2);
        const auto latest = find_latest_valid(
            checkpoint_run_dir(spec.timing.checkpoint_dir, "fmore", 0));
        ASSERT_TRUE(latest.has_value());
        EXPECT_EQ(latest->spec_text, to_text(spec));
    }
}

/// The whole file at `path`.
std::vector<char> read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(CrashResume, ResumedRunRewritesByteIdenticalCheckpoints) {
    // The per-round writer — background writes, an incrementally encoded
    // tape, and on resume a tape restored from disk — leaves exactly the
    // bytes the one-shot save_checkpoint writes for the same state.
    TempDir tmp;
    ExperimentSpec spec = tiny_sim_spec(tmp.path("ckpt"));
    spec.timing.checkpoint_every = 1;
    spec.timing.checkpoint_keep = spec.training.rounds;
    ExperimentTrial full(spec, 0);
    (void)full.run_resumable("fmore", nullptr);
    const std::string run_dir =
        checkpoint_run_dir(spec.timing.checkpoint_dir, "fmore", 0);
    const auto file = [&](std::size_t round) {
        return run_dir + "/" + checkpoint_filename(round);
    };
    std::vector<std::vector<char>> first(spec.training.rounds + 1);
    for (std::size_t round = 1; round <= spec.training.rounds; ++round) {
        first[round] = read_bytes(file(round));
        ASSERT_FALSE(first[round].empty()) << "no checkpoint for round " << round;
    }

    // Resume from round 3 into the same directory: the spec text inside
    // every file records it, so the run cannot move.
    const RunCheckpoint mid = load_checkpoint(file(3));
    for (std::size_t round = 4; round <= spec.training.rounds; ++round)
        fs::remove(file(round));
    ExperimentTrial resumed(spec, 0);
    (void)resumed.run_resumable("fmore", &mid);

    const std::string resaved = tmp.path("resaved.fmsnap");
    for (std::size_t round = 1; round <= spec.training.rounds; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        EXPECT_EQ(read_bytes(file(round)), first[round]);
        save_checkpoint(load_checkpoint(file(round)), resaved);
        EXPECT_EQ(read_bytes(resaved), first[round]);
    }
}

TEST(CrashResume, UnwritableCheckpointDirFailsTheRun) {
    // A failed checkpoint write fails the run with a diagnosis naming the
    // path. Nothing can create a directory below a regular file, whatever
    // the process may write, so every save of the first run fails. In the
    // second only round 1's file is blocked, by a directory of its name:
    // that write runs in the background, and the next save must rethrow
    // its error rather than let the run finish without it.
    TempDir tmp;
    { std::ofstream blocker(tmp.path("blocker")); }
    ExperimentSpec below_file = tiny_sim_spec(tmp.path("blocker") + "/ckpt");
    below_file.timing.checkpoint_every = 1;
    ExperimentSpec one_blocked = tiny_sim_spec(tmp.path("ckpt"));
    one_blocked.timing.checkpoint_every = 1;
    const std::string blocked_file =
        checkpoint_run_dir(one_blocked.timing.checkpoint_dir, "fmore", 0) + "/"
        + checkpoint_filename(1);
    fs::create_directories(blocked_file);

    for (const auto& [spec, path] : {std::pair{below_file, below_file.timing.checkpoint_dir},
                                     std::pair{one_blocked, blocked_file}}) {
        SCOPED_TRACE(path);
        ExperimentTrial trial(spec, 0);
        try {
            (void)trial.run_resumable("fmore", nullptr);
            ADD_FAILURE() << "the run finished although a checkpoint was not written";
        } catch (const util::SnapshotError& e) {
            EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
        }
    }
}

TEST(CrashResume, RetentionBoundsTheCheckpointDirectory) {
    TempDir tmp;
    ExperimentSpec spec = tiny_sim_spec(tmp.path("ckpt"));
    spec.timing.checkpoint_every = 1;
    spec.timing.checkpoint_keep = 2;
    ExperimentTrial trial(spec, 0);
    (void)trial.run_resumable("fmore", nullptr);
    const std::string run_dir =
        checkpoint_run_dir(spec.timing.checkpoint_dir, "fmore", 0);
    std::size_t files = 0;
    for (const auto& entry : fs::directory_iterator(run_dir)) {
        (void)entry;
        ++files;
    }
    EXPECT_EQ(files, 2u);
    EXPECT_TRUE(fs::exists(run_dir + "/" + checkpoint_filename(5)));
    EXPECT_TRUE(fs::exists(run_dir + "/" + checkpoint_filename(6)));
}

} // namespace
} // namespace fmore::core
