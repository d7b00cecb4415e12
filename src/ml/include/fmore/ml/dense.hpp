#pragma once

#include "fmore/ml/layer.hpp"

namespace fmore::ml {

/// Fully connected layer: y = x W^T + b with x of shape [B, in], W of shape
/// [out, in], b of shape [out]. Runs on the `ml::gemm` micro-kernel,
/// bit-identical to the textbook loops of `reference::NaiveDense`
/// (gemm.hpp's order contract).
class Dense final : public Layer {
public:
    Dense(std::size_t in_features, std::size_t out_features);

    void forward_into(const Tensor& input, Tensor& out, bool training) override;
    void backward_into(const Tensor& grad_output, Tensor& grad_input) override;
    std::vector<ParamBlock> parameters() override;
    void initialize(stats::Rng& rng) override;
    [[nodiscard]] std::unique_ptr<Layer> clone() const override {
        return std::make_unique<Dense>(*this);
    }
    [[nodiscard]] std::string name() const override { return "Dense"; }

    [[nodiscard]] std::size_t in_features() const { return in_; }
    [[nodiscard]] std::size_t out_features() const { return out_; }

private:
    std::size_t in_;
    std::size_t out_;
    std::vector<float> weight_;      // [out, in]
    std::vector<float> bias_;        // [out]
    std::vector<float> weight_grad_;
    std::vector<float> bias_grad_;
    Tensor cached_input_;
    std::vector<float> wt_;          // W^T scratch for the forward GEMM
};

} // namespace fmore::ml
