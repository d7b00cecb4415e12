#include "fmore/mec/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fmore::mec {

ClusterTimeModel::ClusterTimeModel(const MecPopulation& population,
                                   ClusterTimeConfig config, bool auction_round)
    : population_(population), config_(config), auction_round_(auction_round) {
    if (!(config_.model_bytes > 0.0))
        throw std::invalid_argument("ClusterTimeModel: model_bytes must be > 0");
    if (!std::isfinite(config_.latency_spread) || config_.latency_spread < 0.0)
        throw std::invalid_argument(
            "ClusterTimeModel: latency_spread must be finite and >= 0");
    if (std::isnan(config_.dropout_prob) || config_.dropout_prob < 0.0
        || config_.dropout_prob >= 1.0)
        throw std::invalid_argument(
            "ClusterTimeModel: dropout_prob must be in [0, 1)");
}

ClusterTimeModel::ClusterTimeModel(const MecPopulation& population,
                                   ClusterTimeConfig config, bool auction_round,
                                   stats::Rng& factor_rng)
    : ClusterTimeModel(population, config, auction_round) {
    // One lognormal draw per node, population order — per-trial straggler
    // identities are then a pure function of the factor seed, independent
    // of which rounds or policies later query the model.
    if (config_.latency_spread > 0.0) {
        latency_factors_.reserve(population_.size());
        for (std::size_t i = 0; i < population_.size(); ++i) {
            latency_factors_.push_back(
                std::exp(config_.latency_spread * factor_rng.normal(0.0, 1.0)));
        }
    }
}

double ClusterTimeModel::latency_factor(std::size_t i) const {
    return latency_factors_.empty() ? 1.0 : latency_factors_.at(i);
}

double ClusterTimeModel::client_seconds(std::size_t client,
                                        std::size_t samples) const {
    const PopulationStore& store = population_.store();
    const double bw_bytes_s = std::max(1.0, store.bandwidth_mbps(client)) * 1.0e6 / 8.0;
    const double transfer = 2.0 * config_.model_bytes / bw_bytes_s; // down + up
    const double cores = std::max(0.25, store.cpu_cores(client));
    const double compute =
        static_cast<double>(samples) * config_.seconds_per_sample_core / cores;
    return latency_factor(client) * (transfer + compute);
}

double ClusterTimeModel::round_seconds(const fl::SelectionRecord& selection,
                                       const std::vector<std::size_t>& samples) const {
    double slowest = 0.0;
    std::size_t si = 0;
    for (const fl::SelectedClient& sel : selection.selected) {
        const std::size_t trained = si < samples.size() ? samples[si] : 0;
        slowest = std::max(slowest, client_seconds(sel.client, trained));
        ++si;
    }
    double total = slowest + config_.round_overhead_s;
    if (auction_round_) total += config_.auction_overhead_s;
    return total;
}

fl::RoundTimeModel ClusterTimeModel::as_time_model() const {
    return [this](const fl::SelectionRecord& selection,
                  const std::vector<std::size_t>& samples) {
        return round_seconds(selection, samples);
    };
}

fl::ClientTimeModel ClusterTimeModel::as_client_time_model() const {
    return [this](std::size_t client, std::size_t samples, stats::Rng& rng) {
        fl::DispatchTiming timing;
        timing.seconds = client_seconds(client, samples);
        // Guarded so a dropout-free configuration consumes no RNG — the
        // async determinism/equivalence contracts depend on it.
        timing.dropped =
            config_.dropout_prob > 0.0 && rng.bernoulli(config_.dropout_prob);
        return timing;
    };
}

} // namespace fmore::mec
