#pragma once

#include <cstdint>

#include "fmore/ml/layer.hpp"

namespace fmore::ml {

/// Elementwise rectified linear unit: x < 0 ? +0 : x forward, so -0 and
/// NaN pass through, and g where x > 0 or x is NaN, else +0, backward.
/// Each pass is one vector loop of selects.
class ReLU final : public Layer {
public:
    void forward_into(const Tensor& input, Tensor& out, bool training) override;
    void backward_into(const Tensor& grad_output, Tensor& grad_input) override;
    [[nodiscard]] std::unique_ptr<Layer> clone() const override {
        return std::make_unique<ReLU>(*this);
    }
    [[nodiscard]] std::string name() const override { return "ReLU"; }

private:
    /// !(x <= 0) of the last forward's input, one byte an element: all
    /// backward needs of it. Kept by every forward, training or not.
    std::vector<std::uint8_t> mask_;
};

/// Flatten [B, ...] to [B, volume].
class Flatten final : public Layer {
public:
    void forward_into(const Tensor& input, Tensor& out, bool training) override;
    void backward_into(const Tensor& grad_output, Tensor& grad_input) override;
    /// Flatten holds no parameters: as a first layer its backward has
    /// nothing to do.
    void backward_params(const Tensor& /*grad_output*/) override {}
    [[nodiscard]] std::unique_ptr<Layer> clone() const override {
        return std::make_unique<Flatten>(*this);
    }
    [[nodiscard]] std::string name() const override { return "Flatten"; }

private:
    std::vector<std::size_t> cached_shape_;
};

} // namespace fmore::ml
