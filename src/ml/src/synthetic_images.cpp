#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "fmore/ml/synthetic.hpp"
#include "fmore/stats/chunk_replay.hpp"
#include "reserve_split.hpp"

namespace fmore::ml {

namespace {

/// Samples per replayed chunk (`stats::draw_in_chunks`): the replays trail
/// the walk by about one chunk, and a 10,500-sample set keeps 329 engine
/// copies.
constexpr std::size_t kSampleChunk = 32;

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
    const auto classes = static_cast<std::int64_t>(spec.classes);
    stats::ChunkedPass pass;
    pass.items = spec.samples;
    pass.chunk_items = kSampleChunk;
    pass.prepare_tasks = 2;
    pass.prepare = [&](std::size_t half) {
        Dataset& out = half == 0 ? split.train : split.test;
        const std::size_t n = half == 0 ? train_samples : spec.samples - train_samples;
        out.features.resize(n * vol);
        out.labels.resize(n);
    };
    pass.walk = [&](stats::Rng& walk, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            (void)walk.uniform_int(0, classes - 1);
            walk.skip_normals(vol);
        }
    };
    pass.draw = [&](stats::Rng& draws, std::size_t lo, std::size_t hi) {
        const double blend = spec.prototype_overlap;
        for (std::size_t i = lo; i < hi; ++i) {
            const auto label = static_cast<int>(draws.uniform_int(0, classes - 1));
            const std::vector<float>& proto = prototypes[static_cast<std::size_t>(label)];
            const bool train = i < train_samples;
            Dataset& out = train ? split.train : split.test;
            const std::size_t row = train ? i : i - train_samples;
            float* sample = out.features.data() + row * vol;
            for (std::size_t j = 0; j < vol; ++j) {
                const double base = (1.0 - blend) * proto[j] + blend * confuser[j];
                sample[j] = static_cast<float>(base + draws.normal(0.0, spec.noise));
            }
            out.labels[row] = label;
        }
    };
    stats::draw_in_chunks(rng, pass);
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
