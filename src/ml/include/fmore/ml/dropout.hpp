#pragma once

#include <cstdint>

#include "fmore/ml/layer.hpp"

namespace fmore::ml {

/// Inverted dropout: at train time each activation is zeroed with
/// probability `rate` and survivors are scaled by 1/(1-rate); at eval time
/// it is the identity. The paper's CNN/LSTM stacks use dropout between
/// blocks. A training forward takes all of its engine draws first (one
/// 64-bit draw per four activations, the same draws in the same order as a
/// lazy per-element loop), then writes mask and output in one loop without
/// data-dependent branches.
class Dropout final : public Layer {
public:
    explicit Dropout(double rate);

    void forward_into(const Tensor& input, Tensor& out, bool training) override;
    void backward_into(const Tensor& grad_output, Tensor& grad_input) override;
    void attach_rng(stats::Rng* rng) override { rng_ = rng; }
    [[nodiscard]] std::unique_ptr<Layer> clone() const override {
        return std::make_unique<Dropout>(*this);
    }
    [[nodiscard]] std::string name() const override { return "Dropout"; }

private:
    double rate_;
    stats::Rng* rng_ = nullptr;
    std::vector<float> mask_;
    std::vector<std::uint64_t> draws_; // engine words of the last training forward
};

} // namespace fmore::ml
