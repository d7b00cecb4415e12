#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "fmore/core/experiment.hpp"
#include "fmore/fl/metrics.hpp"

namespace fmore::core {

/// Per-round series averaged over repeated trials — the paper reports "the
/// average of five experiments".
struct AveragedSeries {
    std::vector<double> accuracy;  ///< index = round-1
    std::vector<double> loss;
    std::vector<double> payment;   ///< mean winner payment
    std::vector<double> score;     ///< mean winner score
    std::vector<double> seconds;   ///< mean per-round wall clock
    std::vector<double> cumulative_seconds;

    [[nodiscard]] std::size_t rounds() const { return accuracy.size(); }
};

/// Average aligned runs (all must have the same round count).
AveragedSeries average_runs(const std::vector<fl::RunResult>& runs);

/// Mean rounds-to-accuracy across runs; runs that never reach the target
/// count as `penalty_rounds` (defaults to the run length).
double mean_rounds_to_accuracy(const std::vector<fl::RunResult>& runs, double target,
                               std::size_t penalty_rounds = 0);

/// Mean seconds-to-accuracy (testbed experiments); non-reaching runs count
/// their total duration.
double mean_seconds_to_accuracy(const std::vector<fl::RunResult>& runs, double target);

/// One labelled accuracy/loss curve (bench tables, run_scenario output).
struct NamedSeries {
    std::string name;
    AveragedSeries series;
};

/// Print round-by-round accuracy and loss for several policies — the
/// table format every figure bench and the run_scenario CLI share (which
/// is what makes their outputs diffable against each other).
void print_accuracy_loss(std::ostream& out, const std::vector<NamedSeries>& all);

// ---------------------------------------------------------------------------
// Parallel trial runner
// ---------------------------------------------------------------------------

/// Knobs of the multi-threaded trial runner. The defaults auto-size from
/// the machine.
struct TrialRunnerOptions {
    /// Worker-thread count. 0 = auto: the `FMORE_TRIAL_THREADS` environment
    /// variable when set, otherwise `std::thread::hardware_concurrency()`;
    /// always capped at the trial count. An explicit value here wins over
    /// the environment. A resolved count of 1 runs inline on the calling
    /// thread (no pool), which is exactly the old serial loop.
    std::size_t threads = 0;
};

/// One unit of work: build and run trial `trial_index`, return its history.
/// Must be safe to call concurrently from multiple threads with distinct
/// indices (ExperimentTrial is: each trial owns its dataset, population,
/// model and RNG streams).
using TrialFn = std::function<fl::RunResult(std::size_t trial_index)>;

/// Resolve the effective worker count `run_trials` will use for `trials`
/// units of work (applies the env override, hardware default and cap).
[[nodiscard]] std::size_t resolve_trial_threads(std::size_t requested, std::size_t trials);

/// Trials per policy for benches and the scenario CLI: the
/// `FMORE_BENCH_TRIALS` environment override when positive, else
/// `fallback`. One definition so the fig benches and `run_scenario`
/// resolve identical trial counts from the same environment (their tables
/// are diffable only then).
[[nodiscard]] std::size_t bench_trial_count(std::size_t fallback = 3);

/// Run `trials` independent trials of `fn` across a worker pool.
///
/// Results are written into slot `trial_index` of the returned vector, so
/// the output — and anything derived from it, e.g. `average_runs` — is
/// bit-identical for a given root seed regardless of thread count or OS
/// scheduling. Determinism rests on the repo-wide seeding discipline: every
/// trial derives its own RNG streams from (spec.seed, trial_index) alone,
/// never from shared or global state. Workers claim one trial index at a
/// time: a trial costs far more than the atomic fetch that claims it.
///
/// The first exception thrown by any trial is rethrown on the calling
/// thread after the pool drains.
std::vector<fl::RunResult> run_trials(std::size_t trials, const TrialFn& fn,
                                      const TrialRunnerOptions& options = {});

/// `run_trials` over `ExperimentTrial` — the unified entry point: builds
/// the spec's world (simulator or testbed) per trial index and runs the
/// named selection policy. Everything spec-driven (benches, examples,
/// run_scenario) goes through here.
std::vector<fl::RunResult> run_experiment_trials(const ExperimentSpec& spec,
                                                 const std::string& policy,
                                                 std::size_t trials,
                                                 const TrialRunnerOptions& options = {});

/// Convenience: parallel trials + `average_runs`, the "average of five
/// experiments" protocol in one call.
AveragedSeries averaged_experiment(const ExperimentSpec& spec, const std::string& policy,
                                   std::size_t trials,
                                   const TrialRunnerOptions& options = {});

} // namespace fmore::core
