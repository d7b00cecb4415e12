#pragma once

/// @file checkpoint_hooks.hpp (internal to fmore_core)
/// Shared plumbing between SimulationTrial and RealWorldTrial for durable
/// runs: RNG state (de)serialization, RunControl seeding from a loaded
/// core::RunCheckpoint, the on_round hook that writes checkpoints on the
/// timing.checkpoint_every cadence — and fires the deterministic
/// coordinator-kill faults of the crash-recovery harness — and DurableRun,
/// which wires all of it into one run.

#include <csignal>
#include <cstdint>
#include <functional>
#include <future>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fmore/core/experiment.hpp"
#include "fmore/core/run_checkpoint.hpp"
#include "fmore/fl/run_state.hpp"
#include "fmore/fl/selection.hpp"
#include "fmore/mec/population.hpp"
#include "fmore/stats/rng.hpp"
#include "fmore/util/fault_injector.hpp"
#include "fmore/util/snapshot.hpp"

namespace fmore::core::detail {

/// mt19937_64 state in its stream text form — exact by the standard.
inline std::string serialize_rng(stats::Rng& rng) {
    std::ostringstream out;
    out << rng.engine();
    return out.str();
}

inline void restore_rng(stats::Rng& rng, const std::string& state) {
    std::istringstream in(state);
    in >> rng.engine();
    if (in.fail())
        throw util::SnapshotError(
            "checkpoint rng_state does not parse as mt19937_64 state text");
}

/// Selector-side restore state. The adaptive-quorum replay lives on the
/// checkpointed metrics tape: every streaming round recorded its close
/// reason and close time, which is exactly the observation sequence the
/// controller is a pure function of.
inline fl::SelectorCheckpoint make_selector_checkpoint(const RunCheckpoint& ckpt) {
    fl::SelectorCheckpoint sel;
    sel.banned_nodes = ckpt.banned_nodes;
    for (const fl::RoundMetrics& round : ckpt.rounds)
        if (!round.selection.close_reason.empty())
            sel.close_replay.emplace_back(round.selection.close_reason,
                                          round.selection.close_time_s);
    return sel;
}

/// Prior-tape / model / async-carry seeding for a resumed run. The caller
/// wires `on_round` separately.
inline fl::RunControl make_resume_control(const RunCheckpoint& ckpt) {
    fl::RunControl control;
    control.start_round = ckpt.completed_rounds + 1;
    control.prior_rounds = ckpt.rounds;
    control.global = ckpt.model_params;
    control.flight = ckpt.flight;
    control.next_seq = ckpt.next_seq;
    return control;
}

/// The on_round hook: write a checkpoint every `every` rounds (plus the
/// final round, so a finished run always leaves a complete checkpoint),
/// prune to the newest `keep`, then deliver any scheduled coordinator-kill
/// fault. A kill round forces a save first — "SIGKILL right after round R's
/// checkpoint saved" is the contract the crash harness tests — and
/// `ckill_mid` kills from inside the write via the mid_write hook, leaving a
/// torn `.tmp` behind.
///
/// The round thread only encodes: the rounds new since the last save (the
/// metrics section is `tape_`, kept across saves) and the small sections.
/// A background task then writes, fsyncs, renames and prunes. The next
/// save joins it first, so at most one write is in flight, files land in
/// round order, and a failed write rethrows there. Kill rounds and the
/// final round write on the round thread: a kill lands after its
/// checkpoint is durable, and the run returns with its last checkpoint on
/// disk. The background thread is not drawn from `util::ThreadBudget`; it
/// spends its time in fsync.
///
/// Captures references owned by the enclosing run; must not outlive it.
struct CheckpointWriter {
    std::size_t every = 0;
    std::string dir; ///< per-(policy, trial) run directory
    std::size_t keep = 3;
    std::size_t total_rounds = 0;
    std::size_t ckill_round = 0;
    std::size_t ckill_mid_round = 0;
    std::string spec_text;
    std::string policy;
    std::size_t trial_index = 0;
    stats::Rng* run_rng = nullptr;
    mec::MecPopulation* population = nullptr;
    fl::ClientSelector* selector = nullptr;

    /// A run that throws before its final save still waits for the write in
    /// flight, which borrows `tape_`; that write's own error is dropped.
    ~CheckpointWriter() {
        if (pending_.valid()) pending_.wait();
    }

    void operator()(std::size_t round, const std::vector<fl::RoundMetrics>& rounds,
                    const std::vector<float>& global,
                    const std::vector<fl::InFlightUpdate>& flight,
                    std::uint64_t next_seq) {
        const bool kill_now = round == ckill_round && ckill_round > 0;
        const bool kill_mid = round == ckill_mid_round && ckill_mid_round > 0;
        const bool save_now =
            every > 0
            && (round % every == 0 || round == total_rounds || kill_now || kill_mid);
        if (save_now) {
            // The previous write borrows tape_: it must land before tape_ grows.
            if (pending_.valid()) pending_.get();
            tape_.append(rounds);
            RunCheckpoint state; // its tape is tape_, so `rounds` stays empty
            state.spec_text = spec_text;
            state.policy = policy;
            state.trial_index = trial_index;
            state.completed_rounds = round;
            state.rng_state = serialize_rng(*run_rng);
            state.model_params = global;
            state.population = population->snapshot();
            fl::SelectorCheckpoint sel;
            selector->save_checkpoint(sel);
            state.banned_nodes = std::move(sel.banned_nodes);
            state.flight = flight;
            state.next_seq = next_seq;
            util::SnapshotWriter file = checkpoint_sections(state, tape_);
            std::string path = dir + "/" + checkpoint_filename(round);
            if (kill_now || kill_mid || round == total_rounds) {
                write_and_prune(file, dir, path, keep,
                                kill_mid ? std::function<void()>([] { std::raise(SIGKILL); })
                                         : std::function<void()>());
            } else {
                pending_ = std::async(std::launch::async,
                                      [file = std::move(file), dir = dir,
                                       path = std::move(path), keep = keep] {
                                          write_and_prune(file, dir, path, keep, {});
                                      });
            }
        }
        if (kill_now) std::raise(SIGKILL);
    }

private:
    static void write_and_prune(const util::SnapshotWriter& file, const std::string& dir,
                                const std::string& path, std::size_t keep,
                                const std::function<void()>& mid_write) {
        ensure_checkpoint_dir(dir);
        file.write_file(path, mid_write);
        prune_checkpoints(dir, keep);
    }

    MetricsTape tape_;
    std::future<void> pending_; ///< the background write in flight, if any
};

/// One run's durable-run wiring. Construct it right after the run's
/// selector (and, on the testbed, its time model) is built: a resumed run
/// restores the checkpointed population, selector, RNG and tape over state
/// built exactly as a fresh run builds it, so restored state + identical
/// construction = identical draws. Either way, checkpoints are written on
/// the spec's cadence and record `to_text(spec)`, the spec that ran.
///
/// Not copyable: the control's on_round hook refers to the writer, which
/// changes as it saves, so a run's DurableRun is not const.
class DurableRun {
public:
    DurableRun(const ExperimentSpec& spec, const std::string& policy,
               std::size_t trial_index, const RunCheckpoint* resume_from,
               stats::Rng& run_rng, mec::MecPopulation& population,
               fl::ClientSelector& selector) {
        if (resume_from) {
            population.restore(resume_from->population);
            selector.restore_checkpoint(make_selector_checkpoint(*resume_from));
            restore_rng(run_rng, resume_from->rng_state);
            control_ = make_resume_control(*resume_from);
        }
        // The coordinator-kill fault is one-shot: only a FRESH run arms it.
        // A resumed run may re-execute the kill round (mid-write kills tear
        // the checkpoint before it lands), so re-arming would crash-loop the
        // recovery instead of converging on the uninterrupted twin's tape.
        if (!resume_from && !spec.auction.fault_plan.empty()) {
            const util::FaultInjector faults =
                util::FaultInjector::from_spec(spec.auction.fault_plan);
            writer_.ckill_round = faults.coordinator_kill_round();
            writer_.ckill_mid_round = faults.coordinator_kill_mid_write_round();
        }
        const TimingSpec& timing = spec.timing;
        const bool durable = timing.checkpoint_every > 0 || writer_.ckill_round > 0
                             || writer_.ckill_mid_round > 0;
        if (durable) {
            writer_.every = timing.checkpoint_every;
            writer_.dir = checkpoint_run_dir(timing.checkpoint_dir, policy, trial_index);
            writer_.keep = timing.checkpoint_keep;
            writer_.total_rounds = spec.training.rounds;
            writer_.spec_text = to_text(spec);
            writer_.policy = policy;
            writer_.trial_index = trial_index;
            writer_.run_rng = &run_rng;
            writer_.population = &population;
            writer_.selector = &selector;
            control_.on_round = std::ref(writer_);
        }
        active_ = resume_from != nullptr || durable;
    }
    DurableRun(const DurableRun&) = delete;
    DurableRun& operator=(const DurableRun&) = delete;

    /// What the coordinator runs under; null for a plain run.
    [[nodiscard]] const fl::RunControl* control() const {
        return active_ ? &control_ : nullptr;
    }

private:
    fl::RunControl control_;
    CheckpointWriter writer_;
    bool active_ = false;
};

} // namespace fmore::core::detail
