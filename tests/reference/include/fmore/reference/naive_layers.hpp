#pragma once

/// @file naive_layers.hpp
/// The textbook loops the GEMM-backed `ml::Dense`, `ml::Conv2d` and
/// `ml::Lstm` replaced, kept outside the libraries as the oracle the
/// kernel-equivalence suites, `NumericsPin` and `bench/micro_kernels`
/// compare the production layers against. Every element is one running sum
/// in the order gemm.hpp's bit-exactness contract names, so a production
/// layer fed the same parameters, input and output gradient must produce
/// the same bits. Built with the project's flags (`-ffp-contract=off`), so
/// no multiply-add is fused here that is not fused there.
///
/// Each layer's `initialize` runs its production twin's, so it draws the
/// same values from the same generator: a model stacked from these layers
/// on `ml::Model(seed)` holds the production model's parameters and its
/// generator, and Dropout draws the same masks in both.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fmore/ml/layer.hpp"
#include "fmore/ml/model.hpp"
#include "fmore/ml/model_zoo.hpp"

namespace fmore::reference {

/// `ml::Dense` as a direct loop over (batch, output, input).
class NaiveDense final : public ml::Layer {
public:
    NaiveDense(std::size_t in_features, std::size_t out_features);

    void forward_into(const ml::Tensor& input, ml::Tensor& out, bool training) override;
    void backward_into(const ml::Tensor& grad_output, ml::Tensor& grad_input) override;
    std::vector<ml::ParamBlock> parameters() override;
    void initialize(stats::Rng& rng) override;
    [[nodiscard]] std::unique_ptr<ml::Layer> clone() const override {
        return std::make_unique<NaiveDense>(*this);
    }
    [[nodiscard]] std::string name() const override { return "NaiveDense"; }

private:
    std::size_t in_;
    std::size_t out_;
    std::vector<float> weight_;  // [out, in]
    std::vector<float> bias_;    // [out]
    std::vector<float> weight_grad_;
    std::vector<float> bias_grad_;
    ml::Tensor cached_input_;
};

/// `ml::Conv2d` (stride 1, valid padding) as direct loops: forward seeds
/// each output map with its bias and adds one +0-seeded partial per input
/// channel; backward scatters each nonzero output gradient into both
/// gradients in one sweep. `backward_params` is the default full backward.
class NaiveConv2d final : public ml::Layer {
public:
    NaiveConv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel);

    void forward_into(const ml::Tensor& input, ml::Tensor& out, bool training) override;
    void backward_into(const ml::Tensor& grad_output, ml::Tensor& grad_input) override;
    std::vector<ml::ParamBlock> parameters() override;
    void initialize(stats::Rng& rng) override;
    [[nodiscard]] std::unique_ptr<ml::Layer> clone() const override {
        return std::make_unique<NaiveConv2d>(*this);
    }
    [[nodiscard]] std::string name() const override { return "NaiveConv2d"; }

private:
    std::size_t in_c_;
    std::size_t out_c_;
    std::size_t k_;
    std::vector<float> weight_;  // [out_c, in_c, k, k]
    std::vector<float> bias_;    // [out_c]
    std::vector<float> weight_grad_;
    std::vector<float> bias_grad_;
    ml::Tensor cached_input_;
};

/// `ml::Lstm` with the gate pre-activations and the BPTT gradients as
/// per-row loops (same gate layout and caches).
class NaiveLstm final : public ml::Layer {
public:
    NaiveLstm(std::size_t input_dim, std::size_t hidden_dim);

    void forward_into(const ml::Tensor& input, ml::Tensor& out, bool training) override;
    void backward_into(const ml::Tensor& grad_output, ml::Tensor& grad_input) override;
    std::vector<ml::ParamBlock> parameters() override;
    void initialize(stats::Rng& rng) override;
    [[nodiscard]] std::unique_ptr<ml::Layer> clone() const override {
        return std::make_unique<NaiveLstm>(*this);
    }
    [[nodiscard]] std::string name() const override { return "NaiveLstm"; }

private:
    std::size_t input_;
    std::size_t hidden_;
    std::vector<float> w_;  // [4H, E]
    std::vector<float> u_;  // [4H, H]
    std::vector<float> b_;  // [4H]
    std::vector<float> w_grad_;
    std::vector<float> u_grad_;
    std::vector<float> b_grad_;
    ml::Tensor cached_input_;      // [B, T, E]
    std::vector<float> gates_;     // T * B * 4H post-activation gate values
    std::vector<float> cells_;     // (T+1) * B * H, c_0 = 0
    std::vector<float> hiddens_;   // (T+1) * B * H, h_0 = 0
    std::size_t cached_batch_ = 0;
    std::size_t cached_seq_ = 0;
    std::vector<float> dh_;  // [B, H] gradient carried from t to t-1
    std::vector<float> dc_;  // [B, H]
    std::vector<float> dz_;  // [4H] one row's pre-activation gradient
};

/// Copy the parameter values of `from` into `to`, block by block.
/// @throws std::invalid_argument when the blocks differ in count or size
void copy_parameters(ml::Layer& from, ml::Layer& to);

/// `ml::make_cnn` on the naive layers: the same stack, parameters and
/// generator state for the same spec and seed.
[[nodiscard]] ml::Model naive_cnn(const ml::ImageSpec& spec, std::uint64_t seed);

/// `ml::make_cnn_deep` (the fl_cifar model) on the naive layers.
[[nodiscard]] ml::Model naive_cnn_deep(const ml::ImageSpec& spec, std::uint64_t seed);

} // namespace fmore::reference
