#include "fmore/core/realworld.hpp"

#include <sstream>
#include <stdexcept>

#include "checkpoint_hooks.hpp"
#include "engine_parts.hpp"
#include "fmore/core/run_checkpoint.hpp"
#include "fmore/fl/async_coordinator.hpp"
#include "fmore/fl/policy.hpp"
#include "fmore/ml/model_zoo.hpp"
#include "fmore/ml/partition.hpp"
#include "fmore/ml/synthetic.hpp"
#include "fmore/stats/normalizer.hpp"

namespace fmore::core {

namespace {

/// Every input of the testbed's equilibrium tabulation, hex-exact. Note
/// `data_cap` (the largest shard) is trial-dependent, so cross-trial hits
/// happen only when the partition landed on the same cap — unlike the
/// simulator the testbed key is not purely spec-derived.
std::string equilibrium_cache_key(const ExperimentSpec& spec, double data_cap) {
    const PopulationSpec& pop = spec.population;
    const AuctionSpec& auc = spec.auction;
    std::ostringstream key;
    key << std::hexfloat << "testbed|alpha=" << auc.alpha_cpu << ','
        << auc.alpha_bandwidth << ',' << auc.alpha_data << "|cpu_hi=" << pop.cpu_hi
        << "|bandwidth_hi=" << pop.bandwidth_hi << "|data_cap=" << data_cap
        << "|theta=" << pop.theta_lo << ',' << pop.theta_hi << "|N=" << pop.num_nodes
        << "|K=" << auc.winners << "|win_model=" << static_cast<int>(auc.win_model);
    return key.str();
}

/// The wall-clock model's knobs, shared by the bid-latency table and the run.
mec::ClusterTimeConfig cluster_time_config(const TimingSpec& timing) {
    mec::ClusterTimeConfig tc;
    tc.model_bytes = timing.model_bytes;
    tc.seconds_per_sample_core = timing.seconds_per_sample_core;
    tc.round_overhead_s = timing.round_overhead_s;
    tc.latency_spread = timing.latency_spread;
    tc.dropout_prob = timing.dropout_prob;
    return tc;
}

} // namespace

RealWorldTrial::RealWorldTrial(const ExperimentSpec& spec, std::size_t trial_index)
    : spec_(detail::checked_spec(spec, ExperimentKind::testbed)),
      trial_index_(trial_index),
      trial_seed_(spec_.seed + 7000003ULL * (trial_index + 1)) {
    const PopulationSpec& pop = spec_.population;
    stats::Rng rng(trial_seed_);

    // The testbed trains CIFAR-10 (Fig. 12); the proxy dataset mirrors it.
    stats::Rng data_rng = rng.split();
    const std::size_t train_n = spec_.training.train_samples;
    const std::size_t total = train_n + spec_.training.test_samples;
    ml::DatasetSplit data;
    if (spec_.training.dataset == DatasetKind::hpnews) {
        data = ml::make_synthetic_text(ml::hpnews_spec(total), train_n, data_rng);
    } else {
        // Harder than the simulator's CIFAR proxy: the real testbed trains
        // actual CIFAR-10, which stays data-hungry for all 20 rounds (the
        // paper's RandFL only reaches ~41%). The extra noise/overlap keeps
        // the proxy in that regime so per-round data volume — what FMore
        // buys — remains the binding constraint.
        ml::ImageDatasetSpec image = ml::cifar10_spec(total);
        image.noise = 0.85;
        image.prototype_overlap = 0.35;
        data = ml::make_synthetic_images(image, train_n, data_rng);
    }
    train_ = std::move(data.train);
    test_ = std::move(data.test);

    // Unlike the simulator, the testbed is NOT label-sharded: Section V.A
    // only describes non-IID splits for the simulator, while the testbed
    // "allocates data size over the range [2000, 10000]". Nodes therefore
    // hold IID subsets of heterogeneous SIZE — per-round data volume, which
    // FMore's scoring buys, is the binding resource (the paper's testbed
    // accuracy story), not label coverage.
    stats::Rng part_rng = rng.split();
    shards_ = ml::partition_iid(train_, pop.num_nodes, part_rng);
    ml::resize_shards(shards_, train_, pop.data_lo, pop.data_hi, part_rng);
    std::size_t max_shard = 1;
    for (const auto& shard : shards_) {
        max_shard = std::max(max_shard, shard.indices.size());
    }
    data_cap_ = static_cast<double>(max_shard);

    theta_dist_ = std::make_unique<stats::UniformDistribution>(pop.theta_lo, pop.theta_hi);

    solved_ = EquilibriumCache::instance().get_or_solve(
        equilibrium_cache_key(spec_, data_cap_), [this, &pop] {
            const AuctionSpec& auc = spec_.auction;
            // Section V.A testbed scoring:
            // S = 0.4 q_cpu + 0.3 q_bw + 0.3 q_data - p with each dimension
            // min-max normalized over its advertised range.
            std::vector<stats::MinMaxNormalizer> norms;
            norms.emplace_back(0.0, pop.cpu_hi);
            norms.emplace_back(0.0, pop.bandwidth_hi);
            norms.emplace_back(0.0, data_cap_);
            auto scoring = std::make_unique<auction::AdditiveScoring>(
                std::vector<double>{auc.alpha_cpu, auc.alpha_bandwidth, auc.alpha_data},
                norms);

            // Costs are quoted per normalized unit; convert to raw-resource
            // prices. Each beta is kept below alpha_d / theta_hi so
            // providing every resource stays profitable for all types —
            // otherwise high-theta nodes would bid the data floor and train
            // on nothing.
            auto cost = std::make_unique<auction::AdditiveCost>(std::vector<double>{
                0.15 / pop.cpu_hi, 0.10 / pop.bandwidth_hi, 0.20 / data_cap_});
            auto theta = std::make_unique<stats::UniformDistribution>(pop.theta_lo,
                                                                      pop.theta_hi);

            auction::EquilibriumConfig eq;
            eq.num_bidders = pop.num_nodes;
            eq.num_winners = auc.winners;
            eq.win_model = auc.win_model;
            const auction::EquilibriumSolver solver(
                *scoring, *cost, *theta, {0.25, 1.0, 1.0},
                {pop.cpu_hi, pop.bandwidth_hi, data_cap_}, eq);
            auction::EquilibriumStrategy strategy = solver.solve();
            return std::make_shared<const SolvedEquilibrium>(
                std::move(scoring), std::move(cost), std::move(theta),
                std::move(strategy));
        });

    rebuild_population();
}

std::vector<double> RealWorldTrial::bid_latency_table() const {
    const mec::ClusterTimeConfig tc = cluster_time_config(spec_.timing);
    // Same seed as run()'s wall-clock model, so a fresh generator here
    // reproduces the exact straggler factors without touching its stream.
    stats::Rng factor_rng(trial_seed_ ^ 0x57a991e2ULL);
    const mec::ClusterTimeModel time_model(*population_, tc, /*auction_round=*/true,
                                           factor_rng);
    std::vector<double> latencies(spec_.population.num_nodes);
    for (std::size_t i = 0; i < latencies.size(); ++i)
        latencies[i] = time_model.latency_factor(i) * tc.auction_overhead_s;
    return latencies;
}

void RealWorldTrial::rebuild_population() {
    const PopulationSpec& pop = spec_.population;
    stats::Rng pop_rng(trial_seed_ ^ 0xabcdef12345ULL);
    mec::PopulationSpec spec;
    spec.cpu_lo = pop.cpu_lo;
    spec.cpu_hi = pop.cpu_hi;
    spec.bandwidth_lo = pop.bandwidth_lo;
    spec.bandwidth_hi = pop.bandwidth_hi;
    spec.dynamics.resource_jitter = pop.resource_jitter;
    spec.dynamics.theta_jitter = pop.theta_jitter;
    population_ = std::make_unique<mec::MecPopulation>(shards_, train_.num_classes,
                                                       *theta_dist_, spec, pop_rng);
}

ml::Model RealWorldTrial::make_model(std::uint64_t seed) const {
    if (spec_.training.dataset == DatasetKind::hpnews) {
        const ml::TextDatasetSpec text = ml::hpnews_spec(1);
        return ml::make_lstm_classifier(
            ml::TextSpec{text.vocab, text.seq_len, train_.num_classes}, seed);
    }
    return ml::make_cnn_deep(ml::ImageSpec{3, 14, 14, train_.num_classes}, seed);
}

fl::RunResult RealWorldTrial::run(const std::string& policy_name) {
    return run_resumable(policy_name, nullptr);
}

fl::RunResult RealWorldTrial::run_resumable(const std::string& policy_name,
                                            const RunCheckpoint* resume_from) {
    const TimingSpec& timing = spec_.timing;
    rebuild_population();
    ml::Model model = make_model(trial_seed_ ^ 0x5151ULL);
    const fl::CoordinatorConfig cc = detail::coordinator_config(spec_);

    fl::PolicyContext context;
    context.num_clients = spec_.population.num_nodes;
    context.winners = spec_.auction.winners;
    context.trial_seed = trial_seed_;
    context.make_auction_selector = [this](const fl::PolicyContext& ctx) {
        return detail::make_market_selector(spec_, *population_, *solved_, ctx,
                                            [this] { return bid_latency_table(); });
    };

    const std::unique_ptr<fl::SelectionPolicy> policy = fl::make_policy(policy_name);
    const std::unique_ptr<fl::ClientSelector> selector = policy->make_selector(context);

    // The wall-clock model: auction-selected rounds ship only the purchased
    // data volume; baseline rounds ship whole shards. Straggler factors are
    // drawn from a fixed trial stream so every policy faces the same slow
    // nodes.
    const mec::ClusterTimeConfig tc = cluster_time_config(timing);
    const bool is_auction = selector->contracts_data_volume();
    stats::Rng factor_rng(trial_seed_ ^ 0x57a991e2ULL);
    const mec::ClusterTimeModel time_model(*population_, tc, is_auction, factor_rng);

    stats::Rng run_rng(trial_seed_ ^ 0xf00dULL);
    detail::DurableRun durable(spec_, policy_name, trial_index_, resume_from, run_rng,
                               *population_, *selector);

    fl::RunResult result;
    if (timing.round_mode == fl::RoundMode::sync) {
        fl::Coordinator coordinator(model, train_, test_, shards_, cc);
        result = coordinator.run(*selector, run_rng, time_model.as_time_model(),
                                 durable.control());
    } else {
        fl::AsyncCoordinatorConfig ac;
        ac.mode = timing.round_mode;
        ac.min_updates = timing.min_updates;
        // Deadlines are a semi_sync concept; the spec layer keeps the knob
        // mode-agnostic (sweepable), the strict engine API does not.
        ac.round_deadline_s =
            timing.round_mode == fl::RoundMode::semi_sync ? timing.round_deadline_s : 0.0;
        ac.staleness_alpha = timing.staleness_alpha;
        ac.max_staleness = timing.max_staleness;
        ac.round_overhead_s = timing.round_overhead_s;
        ac.auction_overhead_s = is_auction ? tc.auction_overhead_s : 0.0;
        fl::AsyncCoordinator async_coordinator(model, train_, test_, shards_, cc, ac);
        result = async_coordinator.run_async(*selector, run_rng,
                                             time_model.as_client_time_model(),
                                             durable.control());
    }
    if (!result.rounds.empty()
        && !result.rounds.back().selection.all_scores.empty()) {
        last_all_scores_ = result.rounds.back().selection.all_scores;
    }
    return result;
}

} // namespace fmore::core
