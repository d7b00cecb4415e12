#include "fmore/ml/model_zoo.hpp"

#include "fmore/ml/activations.hpp"
#include "fmore/ml/conv2d.hpp"
#include "fmore/ml/dense.hpp"
#include "fmore/ml/dropout.hpp"
#include "fmore/ml/embedding.hpp"
#include "fmore/ml/lstm.hpp"
#include "fmore/ml/pooling.hpp"

namespace fmore::ml {

Model make_cnn(const ImageSpec& spec, std::uint64_t seed) {
    Model model(seed);
    model.add(std::make_unique<Conv2d>(spec.channels, 8, 3));
    model.add(std::make_unique<ReLU>());
    model.add(std::make_unique<MaxPool2d>());
    model.add(std::make_unique<Dropout>(0.25));
    model.add(std::make_unique<Flatten>());
    const std::size_t oh = (spec.height - 2) / 2;
    const std::size_t ow = (spec.width - 2) / 2;
    model.add(std::make_unique<Dense>(8 * oh * ow, 64));
    model.add(std::make_unique<ReLU>());
    model.add(std::make_unique<Dropout>(0.25));
    model.add(std::make_unique<Dense>(64, spec.classes));
    return model;
}

Model make_cnn_deep(const ImageSpec& spec, std::uint64_t seed) {
    Model model(seed);
    model.add(std::make_unique<Conv2d>(spec.channels, 8, 3));
    model.add(std::make_unique<ReLU>());
    model.add(std::make_unique<MaxPool2d>());
    model.add(std::make_unique<Conv2d>(8, 16, 3));
    model.add(std::make_unique<ReLU>());
    model.add(std::make_unique<Dropout>(0.25));
    model.add(std::make_unique<Flatten>());
    const std::size_t h1 = (spec.height - 2) / 2;
    const std::size_t w1 = (spec.width - 2) / 2;
    const std::size_t h2 = h1 - 2;
    const std::size_t w2 = w1 - 2;
    model.add(std::make_unique<Dense>(16 * h2 * w2, 96));
    model.add(std::make_unique<ReLU>());
    model.add(std::make_unique<Dropout>(0.25));
    model.add(std::make_unique<Dense>(96, spec.classes));
    return model;
}

Model make_lstm_classifier(const TextSpec& spec, std::uint64_t seed) {
    Model model(seed);
    model.add(std::make_unique<Embedding>(spec.vocab, 16));
    model.add(std::make_unique<Lstm>(16, 32));
    model.add(std::make_unique<Dense>(32, spec.classes));
    return model;
}

} // namespace fmore::ml
