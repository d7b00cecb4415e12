#pragma once

#include "fmore/ml/model.hpp"

namespace fmore::ml {

/// Shape descriptor for image models.
struct ImageSpec {
    std::size_t channels = 1;
    std::size_t height = 12;
    std::size_t width = 12;
    std::size_t classes = 10;
};

/// Shape descriptor for sequence models.
struct TextSpec {
    std::size_t vocab = 96;
    std::size_t seq_len = 12;
    std::size_t classes = 10;
};

/// Compact analogue of the paper's MNIST CNN (conv -> pool -> dropout ->
/// dense -> dense): Conv(8, 3x3) -> ReLU -> MaxPool -> Dropout(0.25) ->
/// Flatten -> Dense(64) -> ReLU -> Dropout(0.25) -> Dense(classes).
Model make_cnn(const ImageSpec& spec, std::uint64_t seed);

/// Deeper variant mirroring the paper's CIFAR-10 CNN (two conv blocks).
Model make_cnn_deep(const ImageSpec& spec, std::uint64_t seed);

/// LSTM text classifier mirroring the paper's HPNews model:
/// Embedding(vocab, 16) -> LSTM(32) -> Dense(classes).
Model make_lstm_classifier(const TextSpec& spec, std::uint64_t seed);

} // namespace fmore::ml
