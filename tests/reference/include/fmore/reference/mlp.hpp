#pragma once

/// @file mlp.hpp
/// Small-model fixtures no experiment trains: a plain MLP baseline and an
/// elementwise tanh layer for MLP heads. The coordinator, fault and
/// gradient-check suites build them because they train in a fraction of a
/// convolutional model's time.

#include <cstdint>
#include <memory>
#include <string>

#include "fmore/ml/layer.hpp"
#include "fmore/ml/model.hpp"
#include "fmore/ml/model_zoo.hpp"

namespace fmore::reference {

/// Elementwise tanh (the LSTM has its own fused gates).
class Tanh final : public ml::Layer {
public:
    void forward_into(const ml::Tensor& input, ml::Tensor& out, bool training) override;
    void backward_into(const ml::Tensor& grad_output, ml::Tensor& grad_input) override;
    [[nodiscard]] std::unique_ptr<ml::Layer> clone() const override {
        return std::make_unique<Tanh>(*this);
    }
    [[nodiscard]] std::string name() const override { return "Tanh"; }

private:
    ml::Tensor cached_output_;
};

/// Plain MLP baseline: Flatten -> Dense(64) -> ReLU -> Dense(classes).
[[nodiscard]] ml::Model make_mlp(const ml::ImageSpec& spec, std::uint64_t seed);

} // namespace fmore::reference
