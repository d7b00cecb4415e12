#pragma once

#include "fmore/ml/layer.hpp"

namespace fmore::ml {

/// Single-layer LSTM classifier backbone: input [B, T, E], output the final
/// hidden state [B, H]. Full backpropagation through time.
///
/// Gate layout in the fused weight matrices (rows 0..4H): input gate i,
/// forget gate f, candidate g, output gate o:
///     z_t = W x_t + U h_{t-1} + b
///     i = sigmoid(z[0:H]), f = sigmoid(z[H:2H]),
///     g = tanh(z[2H:3H]),  o = sigmoid(z[3H:4H])
///     c_t = f * c_{t-1} + i * g,   h_t = o * tanh(c_t)
class Lstm final : public Layer {
public:
    Lstm(std::size_t input_dim, std::size_t hidden_dim);

    void forward_into(const Tensor& input, Tensor& out, bool training) override;
    void backward_into(const Tensor& grad_output, Tensor& grad_input) override;
    std::vector<ParamBlock> parameters() override;
    void initialize(stats::Rng& rng) override;
    [[nodiscard]] std::unique_ptr<Layer> clone() const override {
        return std::make_unique<Lstm>(*this);
    }
    [[nodiscard]] std::string name() const override { return "Lstm"; }

    [[nodiscard]] std::size_t hidden_dim() const { return hidden_; }

private:
    std::size_t input_;
    std::size_t hidden_;
    std::vector<float> w_;  // [4H, E] input weights
    std::vector<float> u_;  // [4H, H] recurrent weights
    std::vector<float> b_;  // [4H]
    std::vector<float> w_grad_;
    std::vector<float> u_grad_;
    std::vector<float> b_grad_;

    // Caches for BPTT, laid out [T+1 or T][B, ...].
    Tensor cached_input_;           // [B, T, E]
    std::vector<float> gates_;      // T * B * 4H post-activation gate values
    std::vector<float> cells_;      // (T+1) * B * H cell states (c_0 = 0)
    std::vector<float> hiddens_;    // (T+1) * B * H hidden states (h_0 = 0)
    std::size_t cached_batch_ = 0;
    std::size_t cached_seq_ = 0;

    // GEMM scratch (gemm.hpp): transposed weights for the gate matmuls and
    // the per-timestep pre-activation gradient block.
    std::vector<float> wt_;  // [E, 4H]
    std::vector<float> ut_;  // [H, 4H]
    std::vector<float> dz_all_; // [B, 4H]

    // BPTT scratch: the gradients carried from t to t-1.
    std::vector<float> dh_;  // [B, H]
    std::vector<float> dc_;  // [B, H]
};

} // namespace fmore::ml
