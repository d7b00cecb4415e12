#pragma once

#include "fmore/ml/layer.hpp"

namespace fmore::ml {

/// 2-D convolution, stride 1, valid padding. Input [B, C, H, W], kernel
/// [OC, C, KH, KW], output [B, OC, H-KH+1, W-KW+1]. Runs three
/// register-tiled kernels over the whole minibatch (gemm.hpp):
/// `conv2d_forward` runs against weights re-laid out once per call, with
/// output channels in the vector lanes from 16 channels up and output
/// pixels in them below, and backward runs `conv2d_weight_grad` and
/// `conv2d_input_grad`. They match the direct loops of
/// `reference::NaiveConv2d` bit for bit. Each kernel's scratch is a member,
/// so every model clone owns its own.
class Conv2d final : public Layer {
public:
    Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel);

    void forward_into(const Tensor& input, Tensor& out, bool training) override;
    void backward_into(const Tensor& grad_output, Tensor& grad_input) override;
    /// Fast path: parameter gradients only, no input gradient (the model
    /// input needs none when this is the first layer).
    void backward_params(const Tensor& grad_output) override;
    std::vector<ParamBlock> parameters() override;
    void initialize(stats::Rng& rng) override;
    [[nodiscard]] std::unique_ptr<Layer> clone() const override {
        return std::make_unique<Conv2d>(*this);
    }
    [[nodiscard]] std::string name() const override { return "Conv2d"; }

private:
    std::size_t in_c_;
    std::size_t out_c_;
    std::size_t k_;
    std::vector<float> weight_;      // [out_c, in_c, k, k]
    std::vector<float> bias_;        // [out_c]
    std::vector<float> weight_grad_;
    std::vector<float> bias_grad_;
    Tensor cached_input_;
    // Kernel scratch, kept in the layer so a steady round allocates none.
    // Forward: weights and bias per block of output channels; below 16
    // channels also one image's staged input planes and one block's grid
    // rows. Sized by the layer's shape, not the batch.
    std::vector<float> w_blocks_;
    std::vector<float> gy_t_;        // output gradient, output channels in the lanes (weight grad)
    std::vector<float> gy_lanes_;    // output gradient, images in the lanes (input grad)
};

} // namespace fmore::ml
