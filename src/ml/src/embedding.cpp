#include "fmore/ml/embedding.hpp"

#include <cmath>
#include <stdexcept>

namespace fmore::ml {

Embedding::Embedding(std::size_t vocab_size, std::size_t embed_dim)
    : vocab_(vocab_size),
      dim_(embed_dim),
      table_(vocab_size * embed_dim, 0.0F),
      table_grad_(vocab_size * embed_dim, 0.0F) {
    if (vocab_ == 0 || dim_ == 0) throw std::invalid_argument("Embedding: zero-sized");
}

void Embedding::initialize(stats::Rng& rng) {
    const double scale = 1.0 / std::sqrt(static_cast<double>(dim_));
    for (float& w : table_) w = static_cast<float>(rng.normal(0.0, scale));
}

void Embedding::forward_into(const Tensor& input, Tensor& out, bool /*training*/) {
    if (input.rank() != 2)
        throw std::invalid_argument("Embedding::forward: expected [B, T] token ids");
    const std::size_t batch = input.dim(0);
    const std::size_t seq = input.dim(1);
    cached_shape_ = {batch, seq};
    cached_ids_.resize(batch * seq);
    out.reshape_to({batch, seq, dim_});
    float* y = out.data();
    for (std::size_t i = 0; i < batch * seq; ++i) {
        // Check before converting: a float whose truncation falls outside
        // size_t (negative, NaN, >= 2^64) has no defined conversion. In
        // double, every float and every realistic vocabulary size is exact.
        const double raw = input[i];
        if (!(raw > -1.0 && raw < static_cast<double>(vocab_)))
            throw std::out_of_range("Embedding::forward: token id out of range");
        const auto id = static_cast<std::size_t>(raw);
        cached_ids_[i] = id;
        const float* row = table_.data() + id * dim_;
        float* dst = y + i * dim_;
        for (std::size_t e = 0; e < dim_; ++e) dst[e] = row[e];
    }
}

void Embedding::backward_params(const Tensor& grad_output) {
    if (grad_output.size() != cached_ids_.size() * dim_)
        throw std::invalid_argument("Embedding::backward: grad shape mismatch");
    const float* gy = grad_output.data();
    for (std::size_t i = 0; i < cached_ids_.size(); ++i) {
        float* grow = table_grad_.data() + cached_ids_[i] * dim_;
        const float* src = gy + i * dim_;
        for (std::size_t e = 0; e < dim_; ++e) grow[e] += src[e];
    }
}

void Embedding::backward_into(const Tensor& grad_output, Tensor& grad_input) {
    backward_params(grad_output);
    // Token ids carry no gradient: a zero sentinel of the input's shape.
    grad_input.reshape_to(cached_shape_);
    grad_input.fill(0.0F);
}

std::vector<ParamBlock> Embedding::parameters() {
    return {{&table_, &table_grad_}};
}

} // namespace fmore::ml
