#include <cmath>
#include <stdexcept>
#include <vector>

#include "fmore/ml/synthetic.hpp"
#include "reserve_split.hpp"

namespace fmore::ml {

namespace {

/// Row-stochastic transition matrix for one class: a softmax-sharpened
/// random preference over next tokens. `sharpness` in [0, 1] interpolates
/// between the uniform chain and a strongly peaked one.
std::vector<double> make_transition_matrix(std::size_t vocab, double sharpness,
                                           stats::Rng& rng) {
    std::vector<double> matrix(vocab * vocab, 0.0);
    const double temperature = 0.05 + (1.0 - sharpness) * 2.0;
    for (std::size_t from = 0; from < vocab; ++from) {
        double denom = 0.0;
        for (std::size_t to = 0; to < vocab; ++to) {
            const double e = std::exp(rng.normal(0.0, 1.0) / temperature);
            matrix[from * vocab + to] = e;
            denom += e;
        }
        for (std::size_t to = 0; to < vocab; ++to) matrix[from * vocab + to] /= denom;
    }
    return matrix;
}

std::size_t sample_row(const std::vector<double>& matrix, std::size_t vocab,
                       std::size_t from, stats::Rng& rng) {
    const double r = rng.uniform(0.0, 1.0);
    double acc = 0.0;
    for (std::size_t to = 0; to < vocab; ++to) {
        acc += matrix[from * vocab + to];
        if (r <= acc) return to;
    }
    return vocab - 1;
}

} // namespace

Dataset make_synthetic_text(const TextDatasetSpec& spec, stats::Rng& rng) {
    return make_synthetic_text(spec, spec.samples, rng).train;
}

DatasetSplit make_synthetic_text(const TextDatasetSpec& spec, std::size_t train_samples,
                                 stats::Rng& rng) {
    if (spec.classes < 2) throw std::invalid_argument("make_synthetic_text: classes < 2");
    if (spec.vocab < 2) throw std::invalid_argument("make_synthetic_text: vocab < 2");
    if (spec.seq_len < 2) throw std::invalid_argument("make_synthetic_text: seq_len < 2");

    DatasetSplit split =
        detail::reserve_split({spec.seq_len}, spec.classes, spec.samples, train_samples);

    std::vector<std::vector<double>> chains;
    chains.reserve(spec.classes);
    for (std::size_t c = 0; c < spec.classes; ++c) {
        chains.push_back(make_transition_matrix(spec.vocab, spec.sharpness, rng));
    }

    std::vector<float> sample(spec.seq_len);
    for (std::size_t i = 0; i < spec.samples; ++i) {
        const auto label = static_cast<int>(
            rng.uniform_int(0, static_cast<std::int64_t>(spec.classes) - 1));
        const std::vector<double>& chain = chains[static_cast<std::size_t>(label)];
        auto token = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(spec.vocab) - 1));
        sample[0] = static_cast<float>(token);
        for (std::size_t t = 1; t < spec.seq_len; ++t) {
            token = sample_row(chain, spec.vocab, token, rng);
            sample[t] = static_cast<float>(token);
        }
        (i < train_samples ? split.train : split.test).push_sample(sample, label);
    }
    return split;
}

TextDatasetSpec hpnews_spec(std::size_t samples) {
    TextDatasetSpec spec;
    spec.samples = samples;
    // Tuned so an LSTM reaches the paper's Fig. 7 accuracy band (~0.6 for
    // the best selector after 20 federated rounds): a small vocabulary keeps
    // every token well-observed and sharpness 0.8 makes the class chains
    // separable from a 12-token window.
    spec.vocab = 32;
    spec.sharpness = 0.85;
    return spec;
}

} // namespace fmore::ml
