#pragma once

#include <cstddef>
#include <vector>

#include "fmore/ml/tensor.hpp"

namespace fmore::ml {

/// In-memory labelled dataset. Features are stored flat; `sample_shape` is
/// the per-sample tensor shape (e.g. {1, 12, 12} for mono images or {16}
/// for token sequences).
struct Dataset {
    std::vector<std::size_t> sample_shape;
    std::vector<float> features;
    std::vector<int> labels;
    std::size_t num_classes = 0;

    [[nodiscard]] std::size_t size() const { return labels.size(); }
    [[nodiscard]] std::size_t sample_volume() const { return shape_volume(sample_shape); }

    /// Materialize a batch tensor [B, ...sample_shape] for the given sample
    /// indices.
    [[nodiscard]] Tensor gather(const std::vector<std::size_t>& indices) const;
    [[nodiscard]] std::vector<int> gather_labels(const std::vector<std::size_t>& indices) const;

    /// The same batch and labels for `indices[0..count)`, written into
    /// caller-owned buffers whose storage is reused: the training and
    /// evaluation loops gather every minibatch this way without allocating.
    /// @throws std::out_of_range on an index >= size()
    void gather_into(const std::size_t* indices, std::size_t count, Tensor& batch) const;
    void gather_labels_into(const std::size_t* indices, std::size_t count,
                            std::vector<int>& out) const;

    /// Append one sample (used by generators).
    void push_sample(const std::vector<float>& feat, int label);
};

/// A train/test pair cut from one sample stream without holding the whole
/// stream: its first samples go to `train`, the rest to `test`.
struct DatasetSplit {
    Dataset train;
    Dataset test;
};

} // namespace fmore::ml
