// fl_cifar: the paper/fig06 world (N=100, K=20, CIFAR-10-shaped data, the
// deep CNN, sync FedAvg) run under the fmore policy with a checkpoint
// written after every round. The round is bound by training, so the ml
// kernels, the coordinator fan-out and the checkpoint path show here and
// market changes should not.
//
// Round boundaries come from a decorator policy registered in
// fl::PolicyRegistry: it forwards to the real fmore selector and records
// each select() entry; the last round ends when the run returns. The trace
// lane replays the ml, fl and core calls of the last rounds on the same
// world (same model, same winners, same contracted sample counts) with a
// span around each call.

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <utility>

#include "fmore/auction/cost.hpp"
#include "fmore/auction/equilibrium.hpp"
#include "fmore/auction/scoring.hpp"
#include "fmore/core/equilibrium_cache.hpp"
#include "fmore/core/experiment.hpp"
#include "fmore/core/run_checkpoint.hpp"
#include "fmore/core/scenarios.hpp"
#include "fmore/core/simulation.hpp"
#include "fmore/fl/fedavg.hpp"
#include "fmore/fl/policy.hpp"
#include "fmore/ml/loss.hpp"
#include "fmore/ml/model_zoo.hpp"
#include "fmore/ml/partition.hpp"
#include "fmore/ml/synthetic.hpp"
#include "fmore/stats/distributions.hpp"
#include "fmore/stats/normalizer.hpp"
#include "lanes.hpp"

namespace perfbench {
namespace {

using namespace fmore;

constexpr const char* kScenario = "paper/fig06";
constexpr const char* kPolicy = "perfbench_fmore";

/// What the decorator saw during the run in flight.
struct SelectLog {
    std::vector<std::int64_t> entries_ns;
    std::vector<std::int64_t> span_ids;
    Tracer* tracer = nullptr;
};

SelectLog* g_select_log = nullptr;

/// Forwards every call to the fmore policy's selector; records when each
/// select() starts and, when traced, a `mec.select` span around it.
class TimedSelector final : public fl::ClientSelector {
public:
    explicit TimedSelector(std::unique_ptr<fl::ClientSelector> inner)
        : inner_(std::move(inner)) {}

    fl::SelectionRecord select(std::size_t round, std::size_t k,
                               stats::Rng& rng) override {
        if (g_select_log == nullptr)
            throw std::logic_error("TimedSelector: no select log installed");
        g_select_log->entries_ns.push_back(now_ns());
        Tracer& tracer = *g_select_log->tracer;
        const std::int64_t span = tracer.open("mec.select", static_cast<std::int64_t>(round));
        fl::SelectionRecord record = inner_->select(round, k, rng);
        tracer.close(span);
        g_select_log->span_ids.push_back(span);
        return record;
    }
    std::string name() const override { return inner_->name(); }
    bool contracts_data_volume() const override { return inner_->contracts_data_volume(); }
    void save_checkpoint(fl::SelectorCheckpoint& ckpt) const override {
        inner_->save_checkpoint(ckpt);
    }
    void restore_checkpoint(const fl::SelectorCheckpoint& ckpt) override {
        inner_->restore_checkpoint(ckpt);
    }

private:
    std::unique_ptr<fl::ClientSelector> inner_;
};

class TimedPolicy final : public fl::SelectionPolicy {
public:
    std::string name() const override { return kPolicy; }
    std::unique_ptr<fl::ClientSelector> make_selector(
        const fl::PolicyContext& context) const override {
        return std::make_unique<TimedSelector>(fl::make_policy("fmore")->make_selector(context));
    }
};

core::ExperimentSpec make_spec(std::uint64_t seed, std::size_t rounds,
                               const std::string& checkpoint_dir) {
    core::ExperimentSpec spec = core::ScenarioRegistry::instance().get(kScenario);
    spec.seed = seed;
    spec.training.rounds = rounds;
    spec.timing.checkpoint_every = 1;
    spec.timing.checkpoint_dir = checkpoint_dir;
    return spec;
}

/// Runs `run` with the decorator's log installed; returns the end time.
template <class Run>
std::int64_t logged_run(SelectLog& log, Run&& run) {
    g_select_log = &log;
    try {
        run();
    } catch (...) {
        g_select_log = nullptr;
        throw;
    }
    const std::int64_t end = now_ns();
    g_select_log = nullptr;
    return end;
}

/// Checks every round for K winners and digests the first `check_rounds`
/// (selection plus test accuracy and loss).
void check_run(const fl::RunResult& result, std::size_t winners,
               std::size_t check_rounds, LaneReport& report) {
    for (const fl::RoundMetrics& round : result.rounds) {
        ++report.attempted;
        if (round.selection.selected.size() != winners)
            report.fail(round.round, std::to_string(round.selection.selected.size())
                                         + " winners, expected " + std::to_string(winners));
        if (round.round <= check_rounds) {
            Digest digest = digest_selection(round.selection);
            digest.add(round.test_accuracy);
            digest.add(round.test_loss);
            report.digests.push_back(digest.hex());
        }
    }
}

void time_equilibrium_solve(const core::SimulationConfig& config, Tracer& tracer) {
    const auto data_hi = static_cast<double>(config.data_hi);
    std::vector<stats::MinMaxNormalizer> norms;
    norms.emplace_back(0.0, data_hi);
    norms.emplace_back(0.0, 1.0);
    const auction::ScaledProductScoring scoring(config.alpha, 2, norms);
    const auction::AdditiveCost cost({config.beta_data / data_hi, config.beta_category});
    const stats::UniformDistribution theta(config.theta_lo, config.theta_hi);
    auction::EquilibriumConfig eq;
    eq.num_bidders = config.num_nodes;
    eq.num_winners = config.winners;
    eq.win_model = config.win_model;
    const auction::EquilibriumSolver solver(scoring, cost, theta, {1.0, 0.05},
                                            {data_hi, 1.0}, eq);
    const Span span(tracer, "auction.equilibrium", -1);
    (void)solver.solve();
}

/// Trace lane set-up spans: the world's dataset and partition calls and a
/// cold equilibrium solve, made again by the benchmark with the world's
/// sizes.
void trace_setup_layers(const core::SimulationTrial& sim, std::uint64_t seed,
                        Tracer& tracer) {
    const core::SimulationConfig& config = sim.config();
    stats::Rng rng(seed);
    {
        const Span span(tracer, "ml.dataset", -1);
        (void)ml::make_synthetic_images(
            ml::cifar10_spec(config.train_samples + config.test_samples), rng);
    }
    {
        const Span span(tracer, "ml.partition", -1);
        std::vector<ml::ClientShard> shards = ml::partition_non_iid_variable(
            sim.train_set(), config.num_nodes, config.shards_lo, config.shards_hi, rng);
        ml::resize_shards(shards, sim.train_set(), config.data_lo, config.data_hi, rng);
    }
    time_equilibrium_solve(config, tracer);
}

/// Replays round `round`'s training work on the world: every winner trains
/// its contracted samples from the same global model, FedAvg folds them,
/// one minibatch goes through forward and backward, and the eval subset is
/// evaluated.
void replay_round(const core::SimulationTrial& sim, const fl::RoundMetrics& metrics,
                  ml::Model& model, Tracer& tracer, LaneReport& report) {
    const core::SimulationConfig& config = sim.config();
    const ml::Dataset& train = sim.train_set();
    const auto round = static_cast<std::int64_t>(metrics.round);
    const std::vector<float> global = model.get_parameters();
    std::vector<std::vector<float>> params;
    std::vector<double> weights;
    std::vector<std::size_t> first_local;
    double trained = 0.0;
    for (const fl::SelectedClient& client : metrics.selection.selected) {
        std::vector<std::size_t> local = sim.shards().at(client.client).indices;
        if (local.empty()) continue;
        if (client.train_samples && *client.train_samples < local.size())
            local.resize(std::max<std::size_t>(1, *client.train_samples));
        {
            const Span span(tracer, "ml.train", round);
            model.set_parameters(global);
            for (std::size_t e = 0; e < config.local_epochs; ++e)
                (void)model.train_epoch(train, local, config.batch_size, config.learning_rate);
        }
        params.push_back(model.get_parameters());
        weights.push_back(static_cast<double>(local.size()));
        trained += static_cast<double>(local.size() * config.local_epochs);
        if (first_local.empty()) first_local = local;
    }
    report.add_value("ml.samples_trained", "median", trained);
    std::vector<float> averaged;
    {
        const Span span(tracer, "fl.fedavg", round);
        averaged = fl::federated_average(params, weights);
    }
    model.set_parameters(averaged);

    first_local.resize(std::min(first_local.size(), config.batch_size));
    const ml::Tensor batch = train.gather(first_local);
    const std::vector<int> labels = train.gather_labels(first_local);
    ml::SoftmaxCrossEntropy loss;
    {
        const Span span(tracer, "ml.forward", round);
        (void)loss.forward(model.forward(batch, /*training=*/true), labels);
    }
    const ml::Tensor grad = loss.backward();
    {
        const Span span(tracer, "ml.backward", round);
        model.backward(grad);
    }
    model.zero_grad();

    std::vector<std::size_t> eval(std::min(sim.test_set().size(), config.eval_cap));
    for (std::size_t i = 0; i < eval.size(); ++i) eval[i] = i;
    {
        const Span span(tracer, "ml.eval", round);
        (void)model.evaluate(sim.test_set(), eval);
    }
    report.add_value("ml.samples_evaluated", "median", static_cast<double>(eval.size()));
}

/// Saves the final-round checkpoint again, five times, into the same
/// directory the run wrote to.
void trace_checkpoint(const std::string& run_dir, Tracer& tracer, LaneReport& report) {
    const std::optional<core::RunCheckpoint> latest = core::find_latest_valid(run_dir);
    if (!latest) throw std::runtime_error("no valid checkpoint in " + run_dir);
    const std::string path = run_dir + "/perfbench_copy.fmsnap";
    for (int i = 0; i < 5; ++i) {
        const Span span(tracer, "core.checkpoint", -1);
        core::save_checkpoint(*latest, path);
    }
    report.add_value("core.checkpoint_kb", "last",
                     static_cast<double>(std::filesystem::file_size(path)) / 1024.0);
    std::filesystem::remove(path);
}

} // namespace

LaneReport run_fl_cifar(const LaneArgs& args, Tracer& tracer) {
    fl::PolicyRegistry::instance().replace(kPolicy, [] { return std::make_unique<TimedPolicy>(); });
    const std::string checkpoint_dir = args.work_dir + "/checkpoints";
    const std::size_t total_rounds =
        args.lane == "reference" ? args.check_rounds : args.warmup_rounds + args.rounds;
    if (total_rounds == 0) throw std::invalid_argument("fl_cifar: no rounds to run");
    const core::ExperimentSpec spec = make_spec(args.seed, total_rounds, checkpoint_dir);
    const std::size_t winners = spec.auction.winners;

    LaneReport report;
    SelectLog log;
    log.tracer = &tracer;
    fl::RunResult result;
    std::int64_t end_ns = 0;

    if (args.lane == "trace") {
        // The world the traced calls run on: SimulationTrial is the engine
        // ExperimentTrial wraps, and it exposes the train set, test set and
        // shards.
        std::unique_ptr<core::SimulationTrial> sim;
        for (std::size_t rep = 0; rep < args.setup_repeats; ++rep) {
            sim.reset();
            core::EquilibriumCache::instance().clear();
            const std::int64_t start = now_ns();
            sim = std::make_unique<core::SimulationTrial>(spec, 0);
            report.setup_s.push_back(ms_between(start, now_ns()) * 1e-3);
        }
        const core::EquilibriumCacheStats cache = core::EquilibriumCache::instance().stats();
        report.add_value("core.eq_cache_hits", "last", static_cast<double>(cache.hits));
        report.add_value("core.eq_cache_misses", "last", static_cast<double>(cache.misses));
        for (std::size_t rep = 0; rep < args.setup_repeats; ++rep)
            trace_setup_layers(*sim, args.seed, tracer);

        end_ns = logged_run(log, [&] { result = sim->run(kPolicy); });
        const std::vector<double> rounds_ms = split_rounds_ms(log.entries_ns, end_ns);
        for (std::size_t r = 0; r < rounds_ms.size(); ++r) {
            const std::int64_t next = r + 1 < rounds_ms.size() ? log.entries_ns[r + 1] : end_ns;
            const std::int64_t round_span = tracer.add(
                "fl.coordinator", log.entries_ns[r], next, -1, static_cast<std::int64_t>(r + 1));
            tracer.set_parent(log.span_ids[r], round_span);
        }
        const ml::ImageSpec image{3, 14, 14, sim->train_set().num_classes};
        ml::Model model = ml::make_cnn_deep(image, args.seed);
        const std::size_t first = result.rounds.size() > args.trace_rounds
                                      ? result.rounds.size() - args.trace_rounds
                                      : 0;
        for (std::size_t r = first; r < result.rounds.size(); ++r)
            replay_round(*sim, result.rounds[r], model, tracer, report);
        trace_checkpoint(core::checkpoint_run_dir(checkpoint_dir, kPolicy, 0), tracer, report);
    } else {
        std::unique_ptr<core::ExperimentTrial> trial;
        const std::size_t repeats = args.lane == "main" ? args.setup_repeats : 1;
        for (std::size_t rep = 0; rep < repeats; ++rep) {
            trial.reset();
            core::EquilibriumCache::instance().clear();
            const std::int64_t start = now_ns();
            trial = std::make_unique<core::ExperimentTrial>(spec, 0);
            report.setup_s.push_back(ms_between(start, now_ns()) * 1e-3);
        }
        end_ns = logged_run(log, [&] { result = trial->run(kPolicy); });
    }

    check_run(result, winners, args.check_rounds, report);
    report.notes["checkpoint_fs"] = filesystem_type(checkpoint_dir);
    if (args.lane != "reference") {
        const std::vector<double> rounds_ms = split_rounds_ms(log.entries_ns, end_ns);
        if (rounds_ms.size() <= args.warmup_rounds)
            throw std::logic_error("fl_cifar: no timed rounds after the warm-up");
        report.round_ms.assign(rounds_ms.begin() + static_cast<std::ptrdiff_t>(args.warmup_rounds),
                               rounds_ms.end());
        report.run_s = ms_between(log.entries_ns[args.warmup_rounds], end_ns) * 1e-3;
    }
    report.peak_rss_kib = peak_rss_kib(0);
    return report;
}

} // namespace perfbench
