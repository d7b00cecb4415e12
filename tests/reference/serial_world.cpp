#include "fmore/reference/serial_world.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace fmore::reference {

namespace {

/// Column positions in snapshot order.
enum Column : std::size_t {
    kTheta,
    kDataSize,
    kCategory,
    kBandwidth,
    kCpu,
    kDataCap,
    kCategoryCap,
    kBandwidthCap,
    kCpuCap,
    kColumns,
};

void init_resources(std::vector<std::vector<double>>& col, std::size_t i,
                    const mec::PopulationSpec& spec, double data_cap, double category,
                    const stats::Distribution& theta_dist, stats::Rng& rng) {
    col[kDataCap][i] = data_cap;
    col[kCategoryCap][i] = category;
    col[kBandwidthCap][i] = rng.uniform(spec.bandwidth_lo, spec.bandwidth_hi);
    col[kCpuCap][i] = rng.uniform(spec.cpu_lo, spec.cpu_hi);
    col[kBandwidth][i] = col[kBandwidthCap][i] * rng.uniform(0.6, 1.0);
    col[kCpu][i] = col[kCpuCap][i] * rng.uniform(0.6, 1.0);
    col[kDataSize][i] = col[kDataCap][i] * rng.uniform(0.8, 1.0);
    col[kCategory][i] = category;
    col[kTheta][i] = theta_dist.sample(rng);
}

std::vector<float> make_prototype(const ml::ImageDatasetSpec& spec, stats::Rng& rng) {
    const std::size_t plane = spec.height * spec.width;
    std::vector<float> proto(spec.channels * plane, 0.0F);
    constexpr int waves = 4;
    for (std::size_t c = 0; c < spec.channels; ++c) {
        for (int k = 0; k < waves; ++k) {
            const double fx = rng.uniform(0.5, 3.0);
            const double fy = rng.uniform(0.5, 3.0);
            const double phase = rng.uniform(0.0, 6.283185307179586);
            const double amp = rng.uniform(0.4, 1.0) / waves;
            for (std::size_t y = 0; y < spec.height; ++y) {
                for (std::size_t x = 0; x < spec.width; ++x) {
                    const double ny = static_cast<double>(y) / static_cast<double>(spec.height);
                    const double nx = static_cast<double>(x) / static_cast<double>(spec.width);
                    proto[c * plane + y * spec.width + x] += static_cast<float>(
                        amp * std::cos(6.283185307179586 * (fx * nx + fy * ny) + phase));
                }
            }
        }
    }
    return proto;
}

} // namespace

std::vector<std::vector<double>> serial_store_columns(
    const std::vector<ml::ClientShard>& shards, std::size_t num_classes,
    const stats::Distribution& theta_dist, const mec::PopulationSpec& spec, stats::Rng& rng) {
    std::vector<std::vector<double>> col(kColumns, std::vector<double>(shards.size()));
    for (std::size_t i = 0; i < shards.size(); ++i)
        init_resources(col, i, spec, static_cast<double>(shards[i].indices.size()),
                       shards[i].category_proportion(num_classes), theta_dist, rng);
    return col;
}

std::vector<std::vector<double>> serial_store_columns(
    std::size_t num_nodes, const mec::SyntheticDataSpec& data,
    const stats::Distribution& theta_dist, const mec::PopulationSpec& spec, stats::Rng& rng) {
    std::vector<std::vector<double>> col(kColumns, std::vector<double>(num_nodes));
    for (std::size_t i = 0; i < num_nodes; ++i) {
        const double data_cap = rng.uniform(data.data_lo, data.data_hi);
        const double category = rng.uniform(data.category_lo, data.category_hi);
        init_resources(col, i, spec, data_cap, category, theta_dist, rng);
    }
    return col;
}

ml::DatasetSplit serial_synthetic_images(const ml::ImageDatasetSpec& spec,
                                         std::size_t train_samples, stats::Rng& rng) {
    if (train_samples > spec.samples)
        throw std::invalid_argument("serial_synthetic_images: train_samples > samples");
    ml::DatasetSplit split;
    for (ml::Dataset* half : {&split.train, &split.test}) {
        half->sample_shape = {spec.channels, spec.height, spec.width};
        half->num_classes = spec.classes;
        const std::size_t n =
            half == &split.train ? train_samples : spec.samples - train_samples;
        half->features.reserve(n * half->sample_volume());
        half->labels.reserve(n);
    }
    std::vector<std::vector<float>> prototypes;
    for (std::size_t c = 0; c < spec.classes; ++c) prototypes.push_back(make_prototype(spec, rng));
    const std::vector<float> confuser = make_prototype(spec, rng);

    const std::size_t vol = split.train.sample_volume();
    std::vector<float> sample(vol);
    for (std::size_t i = 0; i < spec.samples; ++i) {
        const auto label = static_cast<int>(
            rng.uniform_int(0, static_cast<std::int64_t>(spec.classes) - 1));
        const std::vector<float>& proto = prototypes[static_cast<std::size_t>(label)];
        const double blend = spec.prototype_overlap;
        for (std::size_t j = 0; j < vol; ++j) {
            const double base = (1.0 - blend) * proto[j] + blend * confuser[j];
            sample[j] = static_cast<float>(base + rng.normal(0.0, spec.noise));
        }
        (i < train_samples ? split.train : split.test).push_sample(sample, label);
    }
    return split;
}

} // namespace fmore::reference
