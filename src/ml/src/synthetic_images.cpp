#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fmore/ml/synthetic.hpp"
#include "reserve_split.hpp"

namespace fmore::ml {

namespace {

/// Smooth random pattern: sum of a few random 2-D cosine waves, one map per
/// channel, scaled to roughly [-1, 1].
std::vector<float> make_prototype(const ImageDatasetSpec& spec, stats::Rng& rng) {
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

Dataset make_synthetic_images(const ImageDatasetSpec& spec, stats::Rng& rng) {
    return make_synthetic_images(spec, spec.samples, rng).train;
}

DatasetSplit make_synthetic_images(const ImageDatasetSpec& spec, std::size_t train_samples,
                                   stats::Rng& rng) {
    if (spec.classes < 2) throw std::invalid_argument("make_synthetic_images: classes < 2");
    if (spec.samples == 0) throw std::invalid_argument("make_synthetic_images: no samples");

    DatasetSplit split = detail::reserve_split({spec.channels, spec.height, spec.width},
                                               spec.classes, spec.samples, train_samples);

    std::vector<std::vector<float>> prototypes;
    prototypes.reserve(spec.classes);
    for (std::size_t c = 0; c < spec.classes; ++c) {
        prototypes.push_back(make_prototype(spec, rng));
    }
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

ImageDatasetSpec mnist_o_spec(std::size_t samples) {
    ImageDatasetSpec spec;
    spec.samples = samples;
    spec.noise = 0.35;
    spec.prototype_overlap = 0.0;
    return spec;
}

ImageDatasetSpec mnist_f_spec(std::size_t samples) {
    ImageDatasetSpec spec;
    spec.samples = samples;
    spec.noise = 0.52;
    spec.prototype_overlap = 0.15;
    return spec;
}

ImageDatasetSpec cifar10_spec(std::size_t samples) {
    ImageDatasetSpec spec;
    spec.samples = samples;
    spec.channels = 3;
    spec.height = 14;
    spec.width = 14;
    spec.noise = 0.80;
    spec.prototype_overlap = 0.35;
    return spec;
}

} // namespace fmore::ml
