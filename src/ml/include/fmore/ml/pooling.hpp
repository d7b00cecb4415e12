#pragma once

#include "fmore/ml/layer.hpp"

namespace fmore::ml {

/// 2x2 max pooling with stride 2 over [B, C, H, W]; odd trailing rows or
/// columns are dropped (floor semantics, as in the paper's Keras-style
/// models). Each window is scanned top-left, top-right, bottom-left,
/// bottom-right, and a slot wins only when strictly greater than the best
/// so far: ties keep the first slot, a NaN never replaces the best, and a
/// NaN in the first slot stays. The scan uses selects instead of branches,
/// so fresh activations cost no mispredictions.
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
    std::vector<std::size_t> argmax_; // flat index into the input per output cell
};

} // namespace fmore::ml
