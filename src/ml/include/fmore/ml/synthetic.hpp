#pragma once

#include "fmore/ml/dataset.hpp"
#include "fmore/stats/rng.hpp"

namespace fmore::ml {

/// Prototype-plus-noise image generator — the offline stand-in for
/// MNIST-O / MNIST-F / CIFAR-10 (see DESIGN.md, substitutions table).
///
/// Each class gets a smooth random prototype image; a sample is its class
/// prototype blended with `prototype_overlap` of a shared confuser pattern
/// plus Gaussian pixel noise. Raising `noise` / `prototype_overlap` lowers
/// the achievable accuracy ceiling, which is how the three image datasets
/// of the paper are ranked (MNIST-O easiest, CIFAR-10 hardest).
struct ImageDatasetSpec {
    std::size_t classes = 10;
    std::size_t channels = 1;
    std::size_t height = 12;
    std::size_t width = 12;
    std::size_t samples = 2000;
    double noise = 0.35;             ///< stddev of additive pixel noise
    double prototype_overlap = 0.0;  ///< blend weight of the shared confuser
};

Dataset make_synthetic_images(const ImageDatasetSpec& spec, stats::Rng& rng);

/// The same `spec.samples`-sample stream, from the same draws, cut at
/// `train_samples`: the first samples into `train`, the rest into `test`.
/// Equal to splitting `make_synthetic_images(spec, rng)`, without the copy.
DatasetSplit make_synthetic_images(const ImageDatasetSpec& spec, std::size_t train_samples,
                                   stats::Rng& rng);

/// Canned specs mirroring the paper's four datasets (difficulty ordering
/// MNIST-O < MNIST-F < CIFAR-10; HPNews is text, below).
ImageDatasetSpec mnist_o_spec(std::size_t samples);
ImageDatasetSpec mnist_f_spec(std::size_t samples);
ImageDatasetSpec cifar10_spec(std::size_t samples);

/// Class-conditional Markov-chain text generator — the stand-in for the
/// HPNews headline dataset. Each class owns a random transition matrix over
/// the vocabulary (sharpness controls how distinguishable classes are); a
/// sample is a length-`seq_len` token walk.
struct TextDatasetSpec {
    std::size_t classes = 10;
    std::size_t vocab = 96;
    std::size_t seq_len = 12;
    std::size_t samples = 2000;
    double sharpness = 0.25; ///< 0 = uniform chains (impossible task), 1 = nearly deterministic
};

Dataset make_synthetic_text(const TextDatasetSpec& spec, stats::Rng& rng);

/// The text stream cut at `train_samples`, as for the image generator.
DatasetSplit make_synthetic_text(const TextDatasetSpec& spec, std::size_t train_samples,
                                 stats::Rng& rng);

TextDatasetSpec hpnews_spec(std::size_t samples);

} // namespace fmore::ml
