#include "fmore/ml/dropout.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace fmore::ml {

Dropout::Dropout(double rate) : rate_(rate) {
    if (!(rate >= 0.0 && rate < 1.0))
        throw std::invalid_argument("Dropout: rate must be in [0, 1)");
}

void Dropout::forward_into(const Tensor& input, Tensor& out, bool training) {
    if (!training || rate_ == 0.0) {
        mask_.assign(input.size(), 1.0F);
        out = input;
        return;
    }
    if (rng_ == nullptr)
        throw std::logic_error("Dropout: no RNG attached (layer must live in a Model)");
    const auto keep_scale = static_cast<float>(1.0 / (1.0 - rate_));

    // One engine draw yields four 16-bit lanes, low lane first, each an
    // independent Bernoulli trial against a fixed-point threshold — a
    // quarter of the generator work of per-element draws. Rates that are
    // multiples of 1/65536 (e.g. the 0.25 the paper's models use) are
    // represented exactly. All ceil(n/4) draws are taken up front, then one
    // loop without data-dependent branches writes the mask and the output.
    const auto threshold = static_cast<std::uint64_t>(
        std::llround(rate_ * 65536.0));
    const std::size_t n = input.size();
    draws_.resize((n + 3) / 4);
    auto& engine = rng_->engine();
    for (std::uint64_t& word : draws_) word = engine();
    mask_.resize(n);
    out.reshape_to(input.shape());
    const float* x = input.data();
    float* y = out.data();
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t lane = (draws_[i / 4] >> (16 * (i % 4))) & 0xFFFFULL;
        const bool keep = lane >= threshold;
        mask_[i] = keep ? keep_scale : 0.0F;
        y[i] = keep ? x[i] * keep_scale : 0.0F;
    }
}

void Dropout::backward_into(const Tensor& grad_output, Tensor& grad_input) {
    if (grad_output.size() != mask_.size())
        throw std::invalid_argument("Dropout::backward: shape mismatch");
    grad_input = grad_output;
    for (std::size_t i = 0; i < grad_input.size(); ++i) grad_input[i] *= mask_[i];
}

} // namespace fmore::ml
