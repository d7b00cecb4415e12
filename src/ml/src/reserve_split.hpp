#pragma once

/// @file reserve_split.hpp (internal to fmore_ml)
/// The output the synthetic generators share: a stream's train and test
/// halves, reserved up front.

#include <stdexcept>

#include "fmore/ml/dataset.hpp"

namespace fmore::ml::detail {

/// Empty halves for a `total`-sample stream whose first `train_samples`
/// samples are for training; both get the stream's sample shape and class
/// count, and each is reserved to its exact size.
/// @throws std::invalid_argument when train_samples > total
inline DatasetSplit reserve_split(const std::vector<std::size_t>& sample_shape,
                                  std::size_t num_classes, std::size_t total,
                                  std::size_t train_samples) {
    if (train_samples > total)
        throw std::invalid_argument("reserve_split: more training samples than the stream holds");
    DatasetSplit split;
    for (Dataset* half : {&split.train, &split.test}) {
        half->sample_shape = sample_shape;
        half->num_classes = num_classes;
    }
    const std::size_t vol = shape_volume(sample_shape);
    split.train.features.reserve(train_samples * vol);
    split.train.labels.reserve(train_samples);
    split.test.features.reserve((total - train_samples) * vol);
    split.test.labels.reserve(total - train_samples);
    return split;
}

} // namespace fmore::ml::detail
