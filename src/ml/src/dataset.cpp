#include "fmore/ml/dataset.hpp"

#include <stdexcept>

namespace fmore::ml {

void Dataset::gather_into(const std::size_t* indices, std::size_t count,
                          Tensor& batch) const {
    const std::size_t vol = sample_volume();
    batch.reshape_to(count, sample_shape);
    float* dst = batch.data();
    for (std::size_t i = 0; i < count; ++i) {
        if (indices[i] >= size()) throw std::out_of_range("Dataset::gather: bad index");
        const float* src = features.data() + indices[i] * vol;
        for (std::size_t j = 0; j < vol; ++j) dst[i * vol + j] = src[j];
    }
}

void Dataset::gather_labels_into(const std::size_t* indices, std::size_t count,
                                 std::vector<int>& out) const {
    out.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        if (indices[i] >= size())
            throw std::out_of_range("Dataset::gather_labels: bad index");
        out[i] = labels[indices[i]];
    }
}

Tensor Dataset::gather(const std::vector<std::size_t>& indices) const {
    Tensor batch;
    gather_into(indices.data(), indices.size(), batch);
    return batch;
}

std::vector<int> Dataset::gather_labels(const std::vector<std::size_t>& indices) const {
    std::vector<int> out;
    gather_labels_into(indices.data(), indices.size(), out);
    return out;
}

void Dataset::push_sample(const std::vector<float>& feat, int label) {
    if (feat.size() != sample_volume())
        throw std::invalid_argument("Dataset::push_sample: feature size mismatch");
    features.insert(features.end(), feat.begin(), feat.end());
    labels.push_back(label);
}

} // namespace fmore::ml
