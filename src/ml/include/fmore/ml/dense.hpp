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
    /// Rows per transposed panel of the forward: one 16-float register
    /// block of `gemm_acc` (its vectorized j), and the zoo's training batch.
    static constexpr std::size_t kLanes = 16;

    std::size_t in_;
    std::size_t out_;
    std::vector<float> weight_;      // [out, in]
    std::vector<float> bias_;        // [out]
    std::vector<float> weight_grad_;
    std::vector<float> bias_grad_;
    Tensor cached_input_;
    /// The forward's transposed panel, [in, kLanes]: a batch of at most
    /// kLanes rows (followed by its [out, kLanes] outputs) or kLanes rows
    /// of W. Bounded by the layer's shape, whatever the batch.
    std::vector<float> relayout_;
};

} // namespace fmore::ml
