#pragma once

#include <cstdint>

#include "fmore/ml/layer.hpp"

namespace fmore::ml {

/// 2x2 max pooling with stride 2 over [B, C, H, W]; odd trailing rows or
/// columns are dropped (floor semantics, as in the paper's Keras-style
/// models). Each window is scanned top-left, top-right, bottom-left,
/// bottom-right, and a slot wins only when strictly greater than the best
/// so far: ties keep the first slot, a NaN never replaces the best, and a
/// NaN in the first slot stays. The scan uses selects instead of branches,
/// so fresh activations cost no mispredictions, and runs as one vector loop
/// over every window of the batch, gathering each window's corners by
/// index, so narrow rows still fill whole vectors.
class MaxPool2d final : public Layer {
public:
    void forward_into(const Tensor& input, Tensor& out, bool training) override;
    void backward_into(const Tensor& grad_output, Tensor& grad_input) override;
    [[nodiscard]] std::unique_ptr<Layer> clone() const override {
        return std::make_unique<MaxPool2d>(*this);
    }
    [[nodiscard]] std::string name() const override { return "MaxPool2d"; }

private:
    std::vector<std::size_t> cached_shape_;
    /// Flat input index of each output cell's top-left corner, rebuilt
    /// when (c, h, w) changes or the batch outgrows it. A smaller batch at
    /// the same (c, h, w) reads a prefix, so a client's ragged last batch
    /// costs no rebuild.
    std::vector<std::int32_t> corner_;
    /// The winning slot of each output cell's window (0 top-left, 1
    /// top-right, 2 bottom-left, 3 bottom-right): one byte a cell, which
    /// backward adds to the corner to rebuild the winner's flat index.
    std::vector<std::uint8_t> slot_;
};

} // namespace fmore::ml
