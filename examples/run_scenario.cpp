// run_scenario: drive any named or file-based experiment from the command
// line — the one CLI the whole experiment surface hangs off.
//
//   run_scenario --list                          # what scenarios exist
//   run_scenario paper/fig04                     # reproduce Fig. 4's world
//   run_scenario paper/fig12 --trials 2          # testbed, 2 trials
//   run_scenario paper/fig05 --policies fmore,randfl
//   run_scenario paper/fig11 --set auction.psi=0.3 --policies psi_fmore
//   run_scenario sim/default --set auction.mechanism=second_score
//   run_scenario --file my_scenario.txt          # key=value spec file
//   run_scenario paper/fig04 --dump              # print the resolved spec
//   run_scenario paper/fig10 --sweep auction.winners=5,25 --policies fmore
//
// `--set section.key=value` overrides any spec field; `--dump` prints the
// resolved key=value form (paste it into a file to fork a scenario).
// `--sweep key=a,b,c` (repeatable) grids the scenario over spec overrides
// and prints one table per grid point — the generic replacement for the
// hand-rolled parameter loops the fig09/fig10/fig11 benches used to carry.
// The
// output table for `paper/fig04` with the default policies is bit-identical
// to bench/fig04_mnist_o's measured table for the same seed and trial
// count — both drive core::averaged_experiment over the same registered
// spec and print through core::print_accuracy_loss.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fmore/core/report.hpp"
#include "fmore/core/run_checkpoint.hpp"
#include "fmore/core/scenarios.hpp"
#include "fmore/core/sweep.hpp"
#include "fmore/core/trials.hpp"

namespace {

using namespace fmore;

int usage(std::ostream& out, int exit_code) {
    out << "usage: run_scenario <scenario> [options]\n"
           "       run_scenario --file <spec.txt> [options]\n"
           "       run_scenario --list\n"
           "options:\n"
           "  --policies a,b,c   selection policies to run (default:\n"
           "                     fmore,randfl,fixfl; testbed: fmore,randfl)\n"
           "  --trials N         trials per policy (default: FMORE_BENCH_TRIALS or 3)\n"
           "  --set key=value    override a spec field (repeatable)\n"
           "  --sweep key=a,b,c  grid over spec overrides (repeatable; cross\n"
           "                     product, one result table per grid point)\n"
           "  --dump             print the resolved spec (pre-sweep) and exit\n"
           "  --validate         validate the resolved spec and exit\n"
           "  --resume DIR       continue interrupted runs from the newest valid\n"
           "                     checkpoints under DIR (a timing.checkpoint_dir);\n"
           "                     the spec is recovered from the checkpoints, so\n"
           "                     no scenario/--file is given\n"
           "  --health           print the end-of-run fl::RoundHealth roll-up\n"
           "                     (close-reason mix, tail close latency, shard\n"
           "                     supervision counters) per policy and trial\n";
    return exit_code;
}

/// Newest valid checkpoint under any `<policy>-t<trial>` run directory of
/// `base` — the spec source for `--resume` (every run of one scenario
/// records the same normalized spec text).
std::optional<core::RunCheckpoint> newest_checkpoint_under(const std::string& base) {
    std::optional<core::RunCheckpoint> best;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(base, ec)) {
        if (!entry.is_directory()) continue;
        std::optional<core::RunCheckpoint> found =
            core::find_latest_valid(entry.path().string());
        if (found && (!best || found->completed_rounds > best->completed_rounds))
            best = std::move(found);
    }
    return best;
}

void print_health(std::ostream& out, const std::string& policy, std::size_t trial,
                  const fl::RoundHealth& h) {
    out << "  " << policy << " trial " << trial << ": rounds=" << h.rounds
        << " streaming=" << h.streaming_rounds;
    if (h.streaming_rounds > 0) {
        char buffer[128];
        std::snprintf(buffer, sizeof buffer,
                      " quorum=%.0f%% deadline=%.0f%% close_p50=%.2fs close_p99=%.2fs",
                      100.0 * h.quorum_close_fraction, 100.0 * h.deadline_close_fraction,
                      h.close_p50_s, h.close_p99_s);
        out << buffer;
    }
    out << " degraded=" << h.rounds_degraded << " evictions=" << h.shard_evictions
        << " respawns=" << h.shard_respawns << " corrupt_frames=" << h.corrupt_frames
        << " frame_retries=" << h.frame_retries << '\n';
}

std::vector<std::string> split_commas(const std::string& text) {
    std::vector<std::string> out;
    std::string token;
    std::istringstream stream(text);
    while (std::getline(stream, token, ',')) {
        if (!token.empty()) out.push_back(token);
    }
    return out;
}

} // namespace

int main(int argc, char** argv) {
    std::string scenario;
    std::string spec_file;
    std::string policies_arg;
    std::size_t trials = core::bench_trial_count();
    std::vector<std::pair<std::string, std::string>> overrides;
    std::vector<core::SweepAxis> sweep_axes;
    std::string resume_dir;
    bool dump = false;
    bool validate_only = false;
    bool show_health = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_value = [&](const char* flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "run_scenario: " << flag << " needs a value\n";
                std::exit(usage(std::cerr, 2));
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") return usage(std::cout, 0);
        if (arg == "--list") {
            const auto entries = core::ScenarioRegistry::instance().list();
            std::size_t width = 0;
            for (const auto& entry : entries) width = std::max(width, entry.name.size());
            for (const auto& entry : entries) {
                std::cout << "  " << entry.name
                          << std::string(width - entry.name.size() + 2, ' ')
                          << entry.description << '\n';
            }
            return 0;
        }
        if (arg == "--file") {
            spec_file = next_value("--file");
        } else if (arg == "--policies") {
            policies_arg = next_value("--policies");
        } else if (arg == "--trials") {
            const std::string value = next_value("--trials");
            char* end = nullptr;
            errno = 0;
            const unsigned long parsed = std::strtoul(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0'
                || value.find('-') != std::string::npos || errno == ERANGE
                || parsed == 0 || parsed > 100000) {
                std::cerr << "run_scenario: --trials needs a positive integer, got '"
                          << value << "'\n";
                return 2;
            }
            trials = static_cast<std::size_t>(parsed);
        } else if (arg == "--set") {
            const std::string assignment = next_value("--set");
            const std::size_t eq = assignment.find('=');
            if (eq == std::string::npos) {
                std::cerr << "run_scenario: --set expects key=value, got '" << assignment
                          << "'\n";
                return 2;
            }
            overrides.emplace_back(assignment.substr(0, eq), assignment.substr(eq + 1));
        } else if (arg == "--sweep") {
            const std::string axis = next_value("--sweep");
            try {
                sweep_axes.push_back(core::parse_sweep_axis(axis));
            } catch (const std::exception& error) {
                std::cerr << "run_scenario: " << error.what() << '\n';
                return 2;
            }
        } else if (arg == "--resume") {
            resume_dir = next_value("--resume");
        } else if (arg == "--health") {
            show_health = true;
        } else if (arg == "--dump") {
            dump = true;
        } else if (arg == "--validate") {
            validate_only = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "run_scenario: unknown option '" << arg << "'\n";
            return usage(std::cerr, 2);
        } else if (scenario.empty()) {
            scenario = arg;
        } else {
            std::cerr << "run_scenario: more than one scenario named ('" << scenario
                      << "' and '" << arg << "')\n";
            return 2;
        }
    }
    if (scenario.empty() && spec_file.empty() && resume_dir.empty())
        return usage(std::cerr, 2);
    if ((!scenario.empty() && !spec_file.empty())
        || (!resume_dir.empty() && (!scenario.empty() || !spec_file.empty()))) {
        std::cerr << "run_scenario: a scenario, --file and --resume are all spec "
                     "sources; pick exactly one\n";
        return 2;
    }
    if (!resume_dir.empty() && !sweep_axes.empty()) {
        std::cerr << "run_scenario: --resume continues one recorded spec and "
                     "cannot be combined with --sweep\n";
        return 2;
    }

    try {
        core::ExperimentSpec spec;
        if (!resume_dir.empty()) {
            const std::optional<core::RunCheckpoint> newest =
                newest_checkpoint_under(resume_dir);
            if (!newest) {
                std::cerr << "run_scenario: no valid checkpoint under '" << resume_dir
                          << "' (expected <policy>-t<trial>/ckpt_round_*.fmsnap "
                             "run directories)\n";
                return 1;
            }
            spec = core::parse_experiment_spec(newest->spec_text);
        } else if (!spec_file.empty()) {
            std::ifstream in(spec_file);
            if (!in) {
                std::cerr << "run_scenario: cannot open spec file '" << spec_file
                          << "'\n";
                return 1;
            }
            std::ostringstream text;
            text << in.rdbuf();
            spec = core::parse_experiment_spec(text.str());
        } else {
            spec = core::named_scenario(scenario);
        }
        for (const auto& [key, value] : overrides) {
            core::apply_key_value(spec, key, value);
        }

        if (dump) {
            std::cout << core::to_text(spec);
            return 0;
        }

        const std::vector<core::SweepPoint> points =
            core::expand_sweep(spec, sweep_axes);
        for (const core::SweepPoint& point : points) {
            const std::vector<std::string> problems = core::validate(point.spec);
            if (problems.empty()) continue;
            std::cerr << "run_scenario: the resolved spec"
                      << (point.label.empty() ? "" : " (" + point.label + ")")
                      << " has " << problems.size() << " problem(s):\n";
            for (const std::string& problem : problems)
                std::cerr << "  - " << problem << '\n';
            return 1;
        }
        if (validate_only) {
            std::cout << (points.size() == 1 ? "spec OK\n"
                                             : std::to_string(points.size())
                                                   + " sweep point(s) OK\n");
            return 0;
        }

        std::vector<std::string> policies = split_commas(policies_arg);
        if (policies.empty()) {
            policies = spec.kind == core::ExperimentKind::testbed
                           ? std::vector<std::string>{"fmore", "randfl"}
                           : std::vector<std::string>{"fmore", "randfl", "fixfl"};
        }

        const std::string title = !scenario.empty()  ? scenario
                                  : !spec_file.empty() ? spec_file
                                                       : resume_dir + " (resumed)";
        bool first = true;
        for (const core::SweepPoint& point : points) {
            if (!first) std::cout << '\n';
            first = false;
            const core::ExperimentSpec& run_spec = point.spec;
            std::cout << title;
            if (!point.label.empty()) std::cout << " [" << point.label << ']';
            std::cout << ": " << core::to_string(run_spec.training.dataset)
                      << ", N=" << run_spec.population.num_nodes
                      << ", K=" << run_spec.auction.winners << ", "
                      << run_spec.training.rounds << " rounds, " << trials
                      << " trial(s) averaged";
            if (run_spec.timing.round_mode != fl::RoundMode::sync) {
                std::cout << ", " << fl::to_string(run_spec.timing.round_mode)
                          << " rounds (min_updates="
                          << run_spec.timing.min_updates << ")";
            }
            std::cout << "\n\n";

            std::vector<core::NamedSeries> all;
            std::vector<std::pair<std::string, std::vector<fl::RunResult>>> raw_runs;
            for (const std::string& policy : policies) {
                std::vector<fl::RunResult> runs;
                if (resume_dir.empty()) {
                    runs = core::run_experiment_trials(run_spec, policy, trials);
                } else {
                    // Resume-or-fresh per (policy, trial): a run directory
                    // with a valid checkpoint continues mid-tape; anything
                    // else (missing, torn, corrupted) starts from round 1.
                    runs = core::run_trials(trials, [&](std::size_t t) {
                        core::ExperimentTrial trial(run_spec, t);
                        const std::optional<core::RunCheckpoint> ckpt =
                            core::find_latest_valid(
                                core::checkpoint_run_dir(resume_dir, policy, t));
                        return trial.run_resumable(policy,
                                                   ckpt ? &*ckpt : nullptr);
                    });
                }
                all.push_back(core::NamedSeries{core::policy_display_name(policy),
                                                core::average_runs(runs)});
                if (show_health) raw_runs.emplace_back(policy, std::move(runs));
            }
            core::print_accuracy_loss(std::cout, all);

            if (show_health) {
                std::cout << "\nround health:\n";
                for (const auto& [policy, runs] : raw_runs)
                    for (std::size_t t = 0; t < runs.size(); ++t)
                        print_health(std::cout, policy, t, runs[t].health());
            }

            if (run_spec.kind == core::ExperimentKind::testbed) {
                std::cout << "\ncumulative training time by round (seconds):\n";
                std::vector<std::string> headers{"round"};
                for (const core::NamedSeries& s : all) headers.push_back(s.name + "_s");
                core::TablePrinter table(std::cout, headers);
                for (std::size_t r = 0; r < all.front().series.rounds(); ++r) {
                    std::vector<double> row{static_cast<double>(r + 1)};
                    for (const core::NamedSeries& s : all)
                        row.push_back(s.series.cumulative_seconds[r]);
                    table.row(row, 2);
                }
            }

            std::cout << "\nfinal accuracy:";
            for (const core::NamedSeries& s : all) {
                std::cout << ' ' << s.name << ' '
                          << core::percent(s.series.accuracy.back());
            }
            std::cout << '\n';
        }
        return 0;
    } catch (const std::exception& error) {
        std::cerr << "run_scenario: " << error.what() << '\n';
        return 1;
    }
}
