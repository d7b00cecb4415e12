#include "fmore/core/simulation.hpp"

#include <sstream>
#include <stdexcept>

#include "checkpoint_hooks.hpp"
#include "engine_parts.hpp"
#include "fmore/core/run_checkpoint.hpp"
#include "fmore/fl/policy.hpp"
#include "fmore/ml/model_zoo.hpp"
#include "fmore/ml/partition.hpp"
#include "fmore/stats/normalizer.hpp"

namespace fmore::core {

namespace {

/// The workload's stand-in data: one stream of train + test samples, the
/// first `train` of them for training, so both halves share the stream's
/// prototypes.
ml::DatasetSplit make_data(DatasetKind kind, std::size_t train, std::size_t test,
                           stats::Rng& rng) {
    const std::size_t total = train + test;
    switch (kind) {
        case DatasetKind::mnist_o:
            return ml::make_synthetic_images(ml::mnist_o_spec(total), train, rng);
        case DatasetKind::mnist_f:
            return ml::make_synthetic_images(ml::mnist_f_spec(total), train, rng);
        case DatasetKind::cifar10:
            return ml::make_synthetic_images(ml::cifar10_spec(total), train, rng);
        case DatasetKind::hpnews:
            return ml::make_synthetic_text(ml::hpnews_spec(total), train, rng);
    }
    throw std::logic_error("SimulationTrial: unknown dataset");
}

/// Every input of the simulator's equilibrium tabulation, hex-exact.
std::string equilibrium_cache_key(const ExperimentSpec& spec) {
    std::ostringstream key;
    key << std::hexfloat << "sim|alpha=" << spec.auction.alpha
        << "|beta_data=" << spec.auction.beta_data
        << "|beta_category=" << spec.auction.beta_category
        << "|data_hi=" << static_cast<double>(spec.population.data_hi)
        << "|theta=" << spec.population.theta_lo << ',' << spec.population.theta_hi
        << "|N=" << spec.population.num_nodes << "|K=" << spec.auction.winners
        << "|win_model=" << static_cast<int>(spec.auction.win_model);
    return key.str();
}

SimulationConfig config_view(const ExperimentSpec& spec) {
    return SimulationConfig{
        .train_samples = spec.training.train_samples,
        .test_samples = spec.training.test_samples,
        .num_nodes = spec.population.num_nodes,
        .winners = spec.auction.winners,
        .shards_lo = spec.population.shards_lo,
        .shards_hi = spec.population.shards_hi,
        .data_lo = spec.population.data_lo,
        .data_hi = spec.population.data_hi,
        .alpha = spec.auction.alpha,
        .beta_data = spec.auction.beta_data,
        .beta_category = spec.auction.beta_category,
        .theta_lo = spec.population.theta_lo,
        .theta_hi = spec.population.theta_hi,
        .win_model = spec.auction.win_model,
        .local_epochs = spec.training.local_epochs,
        .batch_size = spec.training.batch_size,
        .learning_rate = spec.training.learning_rate,
        .eval_cap = spec.training.eval_cap,
    };
}

} // namespace

SimulationTrial::SimulationTrial(const ExperimentSpec& spec, std::size_t trial_index)
    : spec_(detail::checked_spec(spec, ExperimentKind::simulation)),
      config_(config_view(spec_)),
      trial_index_(trial_index),
      trial_seed_(spec_.seed + 1000003ULL * (trial_index + 1)) {
    const PopulationSpec& pop = spec_.population;
    stats::Rng rng(trial_seed_);

    stats::Rng data_rng = rng.split();
    ml::DatasetSplit data = make_data(spec_.training.dataset, spec_.training.train_samples,
                                      spec_.training.test_samples, data_rng);
    train_ = std::move(data.train);
    test_ = std::move(data.test);

    stats::Rng part_rng = rng.split();
    shards_ = ml::partition_non_iid_variable(train_, pop.num_nodes, pop.shards_lo,
                                             pop.shards_hi, part_rng);
    ml::resize_shards(shards_, train_, pop.data_lo, pop.data_hi, part_rng);

    theta_dist_ = std::make_unique<stats::UniformDistribution>(pop.theta_lo, pop.theta_hi);

    // The tabulated strategy depends only on the spec (never the trial
    // index), so a multi-trial sweep solves it once and shares the bundle.
    solved_ = EquilibriumCache::instance().get_or_solve(
        equilibrium_cache_key(spec_), [this, &pop] {
            const AuctionSpec& auc = spec_.auction;
            // Scoring of Section V.A: S(q1, q2, p) = alpha * q1 * q2 - p
            // with the data dimension min-max normalized over the
            // advertised range.
            const auto data_hi = static_cast<double>(pop.data_hi);
            std::vector<stats::MinMaxNormalizer> norms;
            norms.emplace_back(0.0, data_hi);
            norms.emplace_back(0.0, 1.0);
            auto scoring =
                std::make_unique<auction::ScaledProductScoring>(auc.alpha, 2, norms);
            // Additive cost over the same units: beta_data is quoted per
            // normalized data unit, so divide by the range to price raw
            // sample counts.
            auto cost = std::make_unique<auction::AdditiveCost>(
                std::vector<double>{auc.beta_data / data_hi, auc.beta_category});
            auto theta = std::make_unique<stats::UniformDistribution>(pop.theta_lo,
                                                                      pop.theta_hi);

            auction::EquilibriumConfig eq;
            eq.num_bidders = pop.num_nodes;
            eq.num_winners = auc.winners;
            eq.win_model = auc.win_model;
            const auction::EquilibriumSolver solver(*scoring, *cost, *theta, {1.0, 0.05},
                                                    {data_hi, 1.0}, eq);
            auction::EquilibriumStrategy strategy = solver.solve();
            return std::make_shared<const SolvedEquilibrium>(
                std::move(scoring), std::move(cost), std::move(theta),
                std::move(strategy));
        });

    rebuild_population();
}

void SimulationTrial::rebuild_population() {
    stats::Rng pop_rng(trial_seed_ ^ 0xabcdef12345ULL);
    mec::PopulationSpec spec;
    spec.dynamics.resource_jitter = spec_.population.resource_jitter;
    spec.dynamics.theta_jitter = spec_.population.theta_jitter;
    population_ = std::make_unique<mec::MecPopulation>(shards_, train_.num_classes,
                                                       *theta_dist_, spec, pop_rng);
}

ml::Model SimulationTrial::make_model(std::uint64_t seed) const {
    switch (spec_.training.dataset) {
        case DatasetKind::mnist_o:
        case DatasetKind::mnist_f: {
            ml::ImageSpec spec{1, 12, 12, train_.num_classes};
            return ml::make_cnn(spec, seed);
        }
        case DatasetKind::cifar10: {
            ml::ImageSpec spec{3, 14, 14, train_.num_classes};
            return ml::make_cnn_deep(spec, seed);
        }
        case DatasetKind::hpnews: {
            const ml::TextDatasetSpec text = ml::hpnews_spec(1);
            ml::TextSpec spec{text.vocab, text.seq_len, train_.num_classes};
            return ml::make_lstm_classifier(spec, seed);
        }
    }
    throw std::logic_error("SimulationTrial: unknown dataset");
}

fl::RunResult SimulationTrial::run(const std::string& policy_name) {
    return run_resumable(policy_name, nullptr);
}

fl::RunResult SimulationTrial::run_resumable(const std::string& policy_name,
                                             const RunCheckpoint* resume_from) {
    // Fresh population state per policy so each sees the same dynamics.
    rebuild_population();
    ml::Model model = make_model(trial_seed_ ^ 0x5151ULL);
    fl::Coordinator coordinator(model, train_, test_, shards_,
                                detail::coordinator_config(spec_));

    fl::PolicyContext context;
    context.num_clients = spec_.population.num_nodes;
    context.winners = spec_.auction.winners;
    context.trial_seed = trial_seed_;
    context.make_auction_selector = [this](const fl::PolicyContext& ctx) {
        return detail::make_market_selector(spec_, *population_, *solved_, ctx, nullptr);
    };

    const std::unique_ptr<fl::SelectionPolicy> policy = fl::make_policy(policy_name);
    const std::unique_ptr<fl::ClientSelector> selector = policy->make_selector(context);

    stats::Rng run_rng(trial_seed_ ^ 0xf00dULL);
    detail::DurableRun durable(spec_, policy_name, trial_index_, resume_from, run_rng,
                               *population_, *selector);

    fl::RunResult result = coordinator.run(*selector, run_rng, nullptr, durable.control());
    if (!result.rounds.empty()
        && !result.rounds.back().selection.all_scores.empty()) {
        last_all_scores_ = result.rounds.back().selection.all_scores;
    }
    return result;
}

} // namespace fmore::core
